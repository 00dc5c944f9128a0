package kernel

import (
	"reflect"
	"testing"
)

// allMitigations enumerates the full Mitigations value space: every
// combination of the eleven bool fields crossed with every SpectreV2
// mode (2^11 × 5 = 10240 values).
func allMitigations() []Mitigations {
	setters := []func(m *Mitigations, v bool){
		func(m *Mitigations, v bool) { m.PTI = v },
		func(m *Mitigations, v bool) { m.PTEInversion = v },
		func(m *Mitigations, v bool) { m.L1TFFlushOnVMEntry = v },
		func(m *Mitigations, v bool) { m.EagerFPU = v },
		func(m *Mitigations, v bool) { m.SpectreV1 = v },
		func(m *Mitigations, v bool) { m.IBPB = v },
		func(m *Mitigations, v bool) { m.RSBStuff = v },
		func(m *Mitigations, v bool) { m.MDSClear = v },
		func(m *Mitigations, v bool) { m.SSBDSeccomp = v },
		func(m *Mitigations, v bool) { m.SSBDAlways = v },
		func(m *Mitigations, v bool) { m.NoSMT = v },
	}
	modes := []SpectreV2Mode{V2Off, V2RetpolineGeneric, V2RetpolineAMD, V2IBRS, V2EIBRS}
	out := make([]Mitigations, 0, (1<<len(setters))*len(modes))
	for bits := 0; bits < 1<<len(setters); bits++ {
		var base Mitigations
		for i, set := range setters {
			set(&base, bits&(1<<i) != 0)
		}
		for _, mode := range modes {
			m := base
			m.SpectreV2 = mode
			out = append(out, m)
		}
	}
	return out
}

// TestCanonicalKeyInjective asserts both class keys — CanonicalKey and
// the packed Index — are collision-free over the entire Mitigations
// value space: distinct mitigation sets must map to distinct keys, or
// checkpoint lookups (and sweep dedup classes) would silently alias
// unrelated configurations. Index must also stay below IndexSpace, the
// size of the table the lattice fold indexes with it.
func TestCanonicalKeyInjective(t *testing.T) {
	all := allMitigations()
	for _, key := range []struct {
		name string
		of   func(Mitigations) any
	}{
		{"CanonicalKey", func(m Mitigations) any { return m.CanonicalKey() }},
		{"Index", func(m Mitigations) any {
			x := m.Index()
			if x < 0 || x >= IndexSpace {
				t.Fatalf("Index %d of %+v outside [0, %d)", x, m, IndexSpace)
			}
			return x
		}},
	} {
		seen := make(map[any]Mitigations, len(all))
		for _, m := range all {
			k := key.of(m)
			if prev, dup := seen[k]; dup {
				t.Fatalf("%s collision: %+v and %+v both map to %v", key.name, prev, m, k)
			}
			seen[k] = m
		}
		if len(seen) != len(all) {
			t.Fatalf("%s: expected %d distinct keys, got %d", key.name, len(all), len(seen))
		}
	}
}

// TestIndexSeesEveryField flips each Mitigations field in turn and
// requires Index to change, so a field added later cannot silently
// merge lattice classes that differ only in it.
func TestIndexSeesEveryField(t *testing.T) {
	var base Mitigations
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		m := base
		f := reflect.ValueOf(&m).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(int64(V2EIBRS))
		default:
			t.Fatalf("field %s has kind %s; teach Index and this test to pack it", typ.Field(i).Name, f.Kind())
		}
		if m.Index() == base.Index() {
			t.Errorf("setting field %s does not change Index()", typ.Field(i).Name)
		}
	}
}

// TestMitKeyMatchesCanonicalKey pins the checkpoint fingerprint to the
// canonical builder so the stub-image cache and the sweep dedup fold
// cannot drift apart.
func TestMitKeyMatchesCanonicalKey(t *testing.T) {
	for _, m := range allMitigations()[:64] {
		if mitKey(m) != m.CanonicalKey() {
			t.Fatalf("mitKey diverges from CanonicalKey for %+v", m)
		}
	}
}
