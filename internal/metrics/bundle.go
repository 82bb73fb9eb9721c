package metrics

import (
	"fmt"
	"reflect"
	"sync"
)

// bundle is embedded, last, in every meter bundle; S is the bundle's
// snapshot type. It keeps the bundle's counters in declaration order so
// Snapshot can read them without walking the live struct. Embedding it
// last leaves the offsets of the typed Counter fields, and so every
// charge site's code, exactly as they would be without it.
type bundle[S any] struct {
	counters []*Counter
}

// binder is what New needs from a bundle: the snapshot type to check
// against and a place to keep the allocated counters.
type binder interface {
	snapshotType() reflect.Type
	bind([]*Counter)
}

func (b *bundle[S]) snapshotType() reflect.Type { return reflect.TypeFor[S]() }

func (b *bundle[S]) bind(cs []*Counter) { b.counters = cs }

// Snapshot sums every meter of the bundle in one pass, with the same
// lower-bound semantics as Counter.Total.
func (b *bundle[S]) Snapshot() S {
	var s S
	v := reflect.ValueOf(&s).Elem()
	for i, c := range b.counters {
		v.Field(i).SetUint(c.Total())
	}
	return s
}

var counterType = reflect.TypeFor[*Counter]()

// checked memoizes checkBundle per bundle type (reflect.Type → error):
// reading struct fields through reflect.Type allocates, and schedulers
// are built on the set-up path of every run.
var checked sync.Map

// New returns a meter bundle (Contention, Faults, Chain, VM, Ingest)
// with every Counter allocated for the given number of executing
// threads (see NewCounter). It panics if B does not embed a bundle or
// if B's Counter fields and its snapshot's fields disagree — a meter
// declared in one struct but not the other never renders silently.
func New[B any](shards int) *B {
	b := new(B)
	bd, ok := any(b).(binder)
	if !ok {
		panic(fmt.Sprintf("metrics: %T is not a meter bundle", b))
	}
	t := reflect.TypeFor[B]()
	err, ok := checked.Load(t)
	if !ok {
		err, _ = checked.LoadOrStore(t, checkBundle(t, bd.snapshotType()))
	}
	if err != nil {
		panic(err)
	}
	v := reflect.ValueOf(b).Elem()
	cs := make([]*Counter, 0, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() == counterType {
			c := NewCounter(shards)
			f.Set(reflect.ValueOf(c))
			cs = append(cs, c)
		}
	}
	bd.bind(cs)
	return b
}

// checkBundle reports how a live bundle type and its snapshot type
// disagree: every non-embedded live field must be an exported *Counter,
// matched by name and position by a JSON-tagged uint64 snapshot field.
func checkBundle(live, snap reflect.Type) error {
	var names []string
	for i := 0; i < live.NumField(); i++ {
		f := live.Field(i)
		if f.Anonymous {
			continue
		}
		if f.Type != counterType || !f.IsExported() {
			return fmt.Errorf("metrics: %s.%s is not an exported *Counter", live.Name(), f.Name)
		}
		names = append(names, f.Name)
	}
	if snap.Kind() != reflect.Struct || snap.NumField() != len(names) {
		return fmt.Errorf("metrics: %s has %d meters but %s is not a struct of %d fields", live.Name(), len(names), snap, len(names))
	}
	for i, name := range names {
		f := snap.Field(i)
		if f.Name != name || f.Type.Kind() != reflect.Uint64 || f.Tag.Get("json") == "" {
			return fmt.Errorf("metrics: %s.%s does not match %s field %d (%s %s %q)", live.Name(), name, snap.Name(), i, f.Name, f.Type, f.Tag.Get("json"))
		}
	}
	return nil
}

// Each calls f once per meter of a bundle snapshot, in declaration
// order, with the meter's JSON tag as its kind and its group tag ("" for
// most meters) as its group. Every presenter — the /debugz panel,
// /metricz — renders bundles through it, so a new meter shows up
// everywhere without another edit.
func Each(snapshot any, f func(kind, group string, v uint64)) {
	v := reflect.ValueOf(snapshot)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		f(sf.Tag.Get("json"), sf.Tag.Get("group"), v.Field(i).Uint())
	}
}
