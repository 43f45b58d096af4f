package gpusim

import (
	"bytes"
	"reflect"
	"testing"

	"rendelim/internal/obs"
)

// signedLeaves calls fn with every leaf field of v that AppendSigned must
// cover: all fields not tagged json:"-", recursing through nested structs.
// A leaf of a kind it cannot perturb fails the test, so a new field of a
// new kind gets a decision instead of silently going unsigned.
func signedLeaves(t *testing.T, v reflect.Value, path string, fn func(path string, leaf reflect.Value)) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Tag.Get("json") == "-" {
			continue
		}
		name := path + "." + f.Name
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Struct:
			signedLeaves(t, fv, name, fn)
		case reflect.Int, reflect.Uint8, reflect.Float64, reflect.Bool, reflect.String:
			fn(name, fv)
		default:
			t.Fatalf("%s: kind %v is neither signed by AppendSigned nor tagged json:\"-\"", name, fv.Kind())
		}
	}
}

// perturb changes leaf to a different value of its kind.
func perturb(leaf reflect.Value) {
	switch leaf.Kind() {
	case reflect.Int:
		leaf.SetInt(leaf.Int() + 1)
	case reflect.Uint8:
		leaf.SetUint(leaf.Uint() + 1)
	case reflect.Float64:
		leaf.SetFloat(leaf.Float()*2 + 1)
	case reflect.Bool:
		leaf.SetBool(!leaf.Bool())
	case reflect.String:
		leaf.SetString(leaf.String() + "x")
	}
}

// TestAppendSignedCoversEveryField perturbs each signed leaf of Config in
// turn and requires the signed bytes to change, so a field added to Config
// (or to a config it nests) cannot be left out of job keys by accident.
func TestAppendSignedCoversEveryField(t *testing.T) {
	base := DefaultConfig()
	want := base.AppendSigned(nil)
	var leaves []string
	signedLeaves(t, reflect.ValueOf(&base).Elem(), "Config", func(path string, _ reflect.Value) {
		leaves = append(leaves, path)
	})
	for i, path := range leaves {
		cfg := DefaultConfig()
		n := 0
		signedLeaves(t, reflect.ValueOf(&cfg).Elem(), "Config", func(_ string, leaf reflect.Value) {
			if n == i {
				perturb(leaf)
			}
			n++
		})
		if bytes.Equal(cfg.AppendSigned(nil), want) {
			t.Errorf("%s changed but AppendSigned's bytes did not", path)
		}
	}
	t.Logf("%d signed leaves, %d bytes", len(leaves), len(want))

	// The host-only fields never change a result, so they are not signed.
	host := DefaultConfig()
	host.Tracer = obs.NewTracer()
	host.TileWorkers = 4
	if !bytes.Equal(host.AppendSigned(nil), want) {
		t.Error("Tracer or TileWorkers moved the signed bytes")
	}
}
