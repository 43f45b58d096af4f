package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rendelim/internal/crc"
	"rendelim/internal/fault"
	"rendelim/internal/wire"
)

// Snapshot files (job specs, completed results, frame-boundary
// checkpoints, trace upload blobs) are published atomically: the body is
// written to a temp file in the same directory, fsynced, renamed over the
// final name, and the directory fsynced — so a reader (including a
// recovering process) only ever sees absent or complete files, never
// partial ones. Each file is self-checking:
//
//	"RESN" | u16 version | u32 CRC32(body) | body
//
// A snapshot whose magic, version or CRC does not hold is quarantined on
// read — renamed to <name>.quarantined and skipped — rather than aborting
// recovery: one rotten file must not take down everything else on the disk.
const (
	snapMagic   = "RESN"
	snapVersion = uint16(1)
	snapHdrLen  = 4 + 2 + 4

	// QuarantineSuffix marks snapshot files that failed integrity checks;
	// they are kept (renamed, not deleted) for postmortems and CI
	// artifacts.
	QuarantineSuffix = ".quarantined"
)

// snapHeader is the self-checking header that precedes body on disk.
func snapHeader(body []byte) []byte {
	hdr := make([]byte, 0, snapHdrLen)
	hdr = append(hdr, snapMagic...)
	hdr = wire.AppendU16(hdr, snapVersion)
	return wire.AppendU32(hdr, crc.Checksum(body))
}

// writeSnapshot atomically publishes body (wrapped in the self-checking
// header) at path.
func (s *Store) writeSnapshot(path string, body []byte) error {
	hdr := snapHeader(body)
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: temp snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed

	fail := func(stage string, err error) error {
		tmp.Close()
		return fmt.Errorf("store: snapshot %s: %w", stage, err)
	}
	if ferr := s.fault.Check(fault.SiteStoreWrite); ferr != nil {
		s.metrics.WriteErrors.Add(1)
		return fail("write", ferr)
	}
	if _, err := tmp.Write(hdr); err != nil {
		s.metrics.WriteErrors.Add(1)
		return fail("write", err)
	}
	if _, err := tmp.Write(body); err != nil {
		s.metrics.WriteErrors.Add(1)
		return fail("write", err)
	}
	if ferr := s.fault.Check(fault.SiteStoreSync); ferr != nil {
		s.metrics.SyncErrors.Add(1)
		return fail("sync", ferr)
	}
	if err := tmp.Sync(); err != nil {
		s.metrics.SyncErrors.Add(1)
		return fail("sync", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: snapshot close: %w", err)
	}
	if ferr := s.fault.Check(fault.SiteStoreRename); ferr != nil {
		s.metrics.RenameErrors.Add(1)
		return fmt.Errorf("store: snapshot rename: %w", ferr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		s.metrics.RenameErrors.Add(1)
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	// Make the rename itself durable: fsync the containing directory.
	if err := syncDir(filepath.Dir(path)); err != nil {
		s.metrics.SyncErrors.Add(1)
		return err
	}
	s.metrics.SnapshotsWritten.Add(1)
	return nil
}

// readSnapshot loads and verifies the snapshot at path. A missing file
// returns (nil, os.ErrNotExist-wrapping error); a damaged one is quarantined
// and reported as an error.
func (s *Store) readSnapshot(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	body, err := parseSnapshot(raw)
	if err != nil {
		s.quarantine(path, err)
		return nil, err
	}
	return body, nil
}

// parseSnapshot validates the self-checking wrapper and returns the body.
func parseSnapshot(raw []byte) ([]byte, error) {
	if len(raw) < snapHdrLen {
		return nil, fmt.Errorf("store: snapshot too short (%d bytes)", len(raw))
	}
	if string(raw[:4]) != snapMagic {
		return nil, fmt.Errorf("store: snapshot bad magic %q", raw[:4])
	}
	r := wire.NewReader(raw[4:snapHdrLen])
	if v := r.U16(); v != snapVersion {
		return nil, fmt.Errorf("store: snapshot unknown version %d", v)
	}
	sum := r.U32()
	body := raw[snapHdrLen:]
	if crc.Checksum(body) != sum {
		return nil, fmt.Errorf("store: snapshot CRC mismatch (computed %08x, stored %08x)", crc.Checksum(body), sum)
	}
	return body, nil
}

// quarantine renames a damaged snapshot aside so recovery can proceed and
// the evidence survives for inspection.
func (s *Store) quarantine(path string, cause error) {
	q := path + QuarantineSuffix
	//lint:ignore fsyncorder quarantine publishes no new bytes — it moves an already-damaged file aside, and losing the move on power loss just re-quarantines on the next boot
	if err := os.Rename(path, q); err != nil {
		s.log.Error("store: quarantine rename failed", "path", path, "err", err)
		return
	}
	s.metrics.SnapshotsQuarantined.Add(1)
	s.log.Warn("store: quarantined corrupt snapshot", "path", path, "quarantined_as", q, "cause", cause)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

// isQuarantined reports whether a directory entry is a quarantined (or
// temp) file that listings must skip.
func isQuarantined(name string) bool {
	return strings.HasSuffix(name, QuarantineSuffix) || strings.Contains(name, ".tmp-")
}
