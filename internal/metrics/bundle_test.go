package metrics

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// walkBundle checks one meter bundle end to end: New allocates a
// distinct counter for every field, Snapshot reads every field into
// the same-named snapshot field, and Each yields every JSON tag in
// declaration order with its value.
func walkBundle[B any](t *testing.T) {
	t.Helper()
	b := New[B](4)
	live := reflect.ValueOf(b).Elem()
	seen := map[*Counter]bool{}
	var names []string
	for i := 0; i < live.NumField(); i++ {
		f := live.Type().Field(i)
		if f.Anonymous {
			continue
		}
		c := live.Field(i).Interface().(*Counter)
		if c == nil || seen[c] {
			t.Fatalf("%s.%s: counter nil or shared", live.Type().Name(), f.Name)
		}
		seen[c] = true
		names = append(names, f.Name)
		c.Add(len(names), uint64(len(names))) // meter i reads i+1
	}
	snap := reflect.ValueOf(b).MethodByName("Snapshot").Call(nil)[0]
	st := snap.Type()
	if st.NumField() != len(names) {
		t.Fatalf("%s: %d snapshot fields for %d meters", st.Name(), st.NumField(), len(names))
	}
	var wantKinds []string
	for i, name := range names {
		if st.Field(i).Name != name || snap.Field(i).Uint() != uint64(i+1) {
			t.Errorf("%s field %d = %s %d, want %s %d", st.Name(), i, st.Field(i).Name, snap.Field(i).Uint(), name, i+1)
		}
		wantKinds = append(wantKinds, st.Field(i).Tag.Get("json"))
	}
	var kinds []string
	Each(snap.Interface(), func(kind, _ string, v uint64) {
		kinds = append(kinds, kind)
		if v != uint64(len(kinds)) {
			t.Errorf("%s: Each(%s) = %d, want %d", st.Name(), kind, v, len(kinds))
		}
	})
	if !slices.Equal(kinds, wantKinds) || slices.Contains(kinds, "") {
		t.Errorf("%s: Each kinds %v, want %v", st.Name(), kinds, wantKinds)
	}
}

func TestBundles(t *testing.T) {
	walkBundle[Contention](t)
	walkBundle[Faults](t)
	walkBundle[Chain](t)
	walkBundle[VM](t)
	walkBundle[Ingest](t)
}

// Mismatched bundles: every way a live struct and its snapshot can
// disagree must stop New instead of rendering a partial bundle.
type (
	okSnap struct {
		A uint64 `json:"a"`
		B uint64 `json:"b"`
	}
	missingSnap struct {
		A uint64 `json:"a"`
	}
	renamedSnap struct {
		A uint64 `json:"a"`
		C uint64 `json:"c"`
	}
	untaggedSnap struct {
		A uint64 `json:"a"`
		B uint64
	}
	wrongTypeSnap struct {
		A uint64 `json:"a"`
		B int64  `json:"b"`
	}

	missingBundle struct {
		A, B *Counter
		bundle[missingSnap]
	}
	renamedBundle struct {
		A, B *Counter
		bundle[renamedSnap]
	}
	untaggedBundle struct {
		A, B *Counter
		bundle[untaggedSnap]
	}
	wrongTypeBundle struct {
		A, B *Counter
		bundle[wrongTypeSnap]
	}
	notCounterBundle struct {
		A *Counter
		B uint64
		bundle[okSnap]
	}
	notABundle struct {
		A, B *Counter
	}
)

func TestBundleMismatchPanics(t *testing.T) {
	for name, build := range map[string]func(){
		"missing snapshot field": func() { New[missingBundle](1) },
		"renamed snapshot field": func() { New[renamedBundle](1) },
		"untagged snapshot":      func() { New[untaggedBundle](1) },
		"non-uint64 snapshot":    func() { New[wrongTypeBundle](1) },
		"non-Counter meter":      func() { New[notCounterBundle](1) },
		"no embedded bundle":     func() { New[notABundle](1) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "metrics:") {
					t.Errorf("%s: New did not panic with a metrics error (got %v)", name, r)
				}
			}()
			build()
		}()
	}
}
