package nanobench

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestSweepHeterogeneousJobs(t *testing.T) {
	sw := NewSweep(Config{NMeasurements: 2}).
		CPUs("Skylake", "Haswell").
		Modes(Kernel, User).
		Asm("add rax, rbx").
		Unroll(10, 100)

	if !sw.Heterogeneous() {
		t.Fatal("CPU/mode sweep not reported heterogeneous")
	}
	if n := sw.Len(); n != 8 {
		t.Fatalf("Len = %d, want 2 CPUs x 2 modes x 2 unrolls", n)
	}
	// Bare-config expansion refuses heterogeneous sweeps.
	if _, err := sw.Configs(); err == nil {
		t.Error("Configs accepted a heterogeneous sweep")
	}

	jobs, err := sw.Jobs("", Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("Jobs expanded %d entries, want 8", len(jobs))
	}
	// CPU-major, then mode, then the inner config order.
	wantCPU := []string{"Skylake", "Skylake", "Skylake", "Skylake", "Haswell", "Haswell", "Haswell", "Haswell"}
	wantMode := []Mode{Kernel, Kernel, User, User, Kernel, Kernel, User, User}
	wantUnroll := []int{10, 100, 10, 100, 10, 100, 10, 100}
	for i, j := range jobs {
		if j.CPU != wantCPU[i] || j.Mode != wantMode[i] || j.Cfg.UnrollCount != wantUnroll[i] {
			t.Errorf("job %d = (%s, %v, unroll %d), want (%s, %v, unroll %d)",
				i, j.CPU, j.Mode, j.Cfg.UnrollCount, wantCPU[i], wantMode[i], wantUnroll[i])
		}
		if j.Cfg.NMeasurements != 2 {
			t.Errorf("job %d lost the base config (n_measurements %d)", i, j.Cfg.NMeasurements)
		}
	}
}

func TestSweepJobsDefaults(t *testing.T) {
	// A homogeneous sweep expands under the given defaults — and an empty
	// default CPU is preserved verbatim for layers that resolve their own
	// default (the server's session registry).
	sw := NewSweep(Config{}).Asm("add rax, rbx").Unroll(10, 100)
	jobs, err := sw.Jobs("", User)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("expanded %d jobs, want 2", len(jobs))
	}
	for i, j := range jobs {
		if j.CPU != "" || j.Mode != User {
			t.Errorf("job %d = (%q, %v), want defaults preserved", i, j.CPU, j.Mode)
		}
	}

	cfgs, err := sw.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != len(jobs) {
		t.Fatalf("Configs and Jobs disagree on the family size: %d vs %d", len(cfgs), len(jobs))
	}
	for i := range cfgs {
		if !reflect.DeepEqual(cfgs[i], jobs[i].Cfg) {
			t.Errorf("config %d: Jobs and Configs expansions differ:\n%+v\n%+v", i, jobs[i].Cfg, cfgs[i])
		}
	}
}

func TestSweepCPUsModesJSONRoundTrip(t *testing.T) {
	sw := NewSweep(Config{WarmUpCount: 1}).
		CPUs("Skylake", "Haswell").
		Modes(User, Kernel).
		Asm("add rax, rbx").
		Unroll(10, 100)

	data, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	// The wire form carries the dimensions under their documented keys.
	var wire map[string]json.RawMessage
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if _, ok := wire["cpus"]; !ok {
		t.Errorf("wire form has no cpus key: %s", data)
	}
	if string(wire["modes"]) != `["user","kernel"]` {
		t.Errorf("modes wire form = %s", wire["modes"])
	}

	var back Sweep
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal(%s): %v", data, err)
	}
	want, err := sw.Jobs("", Kernel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Jobs("", Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("job families differ after round trip\nwant: %+v\ngot:  %+v", want, got)
	}
	if back.Len() != sw.Len() {
		t.Errorf("Len: got %d, want %d", back.Len(), sw.Len())
	}

	// An unknown mode name is a decode-time error, like Config's decoder.
	if err := json.Unmarshal([]byte(`{"modes":["hypervisor"],"asm":["nop"]}`), &back); err == nil {
		t.Error("unknown mode name decoded without error")
	}
}
