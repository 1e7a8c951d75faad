package workgen

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"

	"cadinterop/internal/exchange"
	"cadinterop/internal/par"
)

// Determinism properties: every generator and mutation hook in this
// package is a pure function of its options and seed. The discovery
// harness (internal/discover) leans on that — identical seeds must yield
// byte-identical subjects at any worker count, or shrink results stop
// being reproducible. testing/quick drives the seed space; the worker
// sweep pins the batch helpers to their serial reference.

var quickCfg = &quick.Config{MaxCount: 25}

func TestScaleExchangeDeterministicQuick(t *testing.T) {
	prop := func(seed int64, netsRaw uint8) bool {
		opts := ScaleOptions{Nets: 2 + int(netsRaw%64), Seed: seed}
		var a, b bytes.Buffer
		ia, err := ScaleExchange(&a, opts)
		if err != nil {
			return false
		}
		ib, err := ScaleExchange(&b, opts)
		if err != nil {
			return false
		}
		return ia == ib && bytes.Equal(a.Bytes(), b.Bytes())
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestSchematicMutationsDeterministicQuick(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		opts := SchematicOptions{Instances: 4, Pages: 2, Seed: seed}
		count := 1 + int(n%4)
		wa, wb := Schematic(opts), Schematic(opts)
		appliedA := SchematicMutations(wa.Design, seed, count)
		appliedB := SchematicMutations(wb.Design, seed, count)
		if !reflect.DeepEqual(appliedA, appliedB) {
			return false
		}
		ja, err := json.Marshal(wa.Design)
		if err != nil {
			return false
		}
		jb, err := json.Marshal(wb.Design)
		if err != nil {
			return false
		}
		return bytes.Equal(ja, jb)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestNetlistMutationsDeterministicQuick(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		opts := ScaleOptions{Nets: 8, Seed: seed}
		count := 1 + int(n%4)
		na, nb := ScaleNetlist(opts), ScaleNetlist(opts)
		appliedA := NetlistMutations(na, seed, count)
		appliedB := NetlistMutations(nb, seed, count)
		if !reflect.DeepEqual(appliedA, appliedB) {
			return false
		}
		var a, b bytes.Buffer
		if err := exchange.Write(&a, na, exchange.WriteOptions{}); err != nil {
			return false
		}
		if err := exchange.Write(&b, nb, exchange.WriteOptions{}); err != nil {
			return false
		}
		return bytes.Equal(a.Bytes(), b.Bytes())
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestMutateHDLDeterministicQuick(t *testing.T) {
	src := CombModule("gen", HDLOptions{Gates: 6, Inputs: 2})
	prop := func(seed int64, n uint8) bool {
		count := 1 + int(n%3)
		outA, appliedA := MutateHDL(src, SynthHDLMutations(), seed, count)
		outB, appliedB := MutateHDL(src, SynthHDLMutations(), seed, count)
		if outA != outB || !reflect.DeepEqual(appliedA, appliedB) {
			return false
		}
		outC, appliedC := MutateHDL(src, SimHDLMutations(), seed, count)
		outD, appliedD := MutateHDL(src, SimHDLMutations(), seed, count)
		return outC == outD && reflect.DeepEqual(appliedC, appliedD)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestBatchHelpersWorkerInvariant pins the batch fan-out helpers to their
// serial reference: workers 1 and 8 must produce identical corpora, with
// mutation hooks applied on top.
func TestBatchHelpersWorkerInvariant(t *testing.T) {
	opt := func(i int) HDLOptions { return HDLOptions{Gates: 3 + i, Inputs: 2 + i%2, Seed: int64(i)} }
	mods1 := CombModules("m", 12, opt, par.Workers(1))
	mods8 := CombModules("m", 12, opt, par.Workers(8))
	if !reflect.DeepEqual(mods1, mods8) {
		t.Error("CombModules differs between workers 1 and 8")
	}

	sopts := make([]SchematicOptions, 8)
	for i := range sopts {
		sopts[i] = SchematicOptions{Instances: 3 + i, Pages: 1 + i%2, Seed: int64(i)}
	}
	sw1 := Schematics(sopts, par.Workers(1))
	sw8 := Schematics(sopts, par.Workers(8))
	for i := range sw1 {
		// Apply the adversarial hook on both sides: determinism must hold
		// through mutation, not just raw generation.
		SchematicMutations(sw1[i].Design, int64(i), 2)
		SchematicMutations(sw8[i].Design, int64(i), 2)
		j1, err := json.Marshal(sw1[i].Design)
		if err != nil {
			t.Fatal(err)
		}
		j8, err := json.Marshal(sw8[i].Design)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j8) {
			t.Errorf("Schematics[%d] differs between workers 1 and 8", i)
		}
	}

	popts := make([]PhysOptions, 4)
	for i := range popts {
		popts[i] = PhysOptions{Cells: 4 + i, Seed: int64(i), CriticalNets: i % 2}
	}
	d1, f1, err := PhysDesigns(popts, par.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	d8, f8, err := PhysDesigns(popts, par.Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d8) || !reflect.DeepEqual(f1, f8) {
		t.Error("PhysDesigns differs between workers 1 and 8")
	}
}
