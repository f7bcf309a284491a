package nanobench

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSweepJSONRoundTrip(t *testing.T) {
	sw := NewSweep(Config{WarmUpCount: 1, Aggregate: Avg}).
		Asm("add rax, rbx", "imul rax, rbx").
		Unroll(10, 100).
		Loop(0, 5).
		Events(MustParseEvents("D1.01 MEM_LOAD_RETIRED.L1_HIT"), nil)

	data, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	var back Sweep
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal(%s): %v", data, err)
	}

	want, err := sw.Configs()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("config families differ after round trip\nwant: %+v\ngot:  %+v", want, got)
	}
	if back.Len() != sw.Len() {
		t.Errorf("Len: got %d, want %d", back.Len(), sw.Len())
	}
}

func TestSweepJSONDecodesAsm(t *testing.T) {
	var sw Sweep
	in := `{"base":{"warm_up_count":1},"asm":["add rax, rbx"],"unrolls":[10,100]}`
	if err := json.Unmarshal([]byte(in), &sw); err != nil {
		t.Fatal(err)
	}
	cfgs, err := sw.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 {
		t.Fatalf("got %d configs, want 2", len(cfgs))
	}
	wantCode := MustAsm("add rax, rbx")
	for i, cfg := range cfgs {
		if !reflect.DeepEqual(cfg.Code, wantCode) || cfg.WarmUpCount != 1 {
			t.Errorf("config %d: %+v", i, cfg)
		}
	}
	if cfgs[0].UnrollCount != 10 || cfgs[1].UnrollCount != 100 {
		t.Errorf("unroll counts: %d, %d", cfgs[0].UnrollCount, cfgs[1].UnrollCount)
	}
}

func TestSweepLenSaturatesOnOverflow(t *testing.T) {
	// Four 2^16-entry dimensions multiply past 2^63; a wrapped (negative
	// or small) Len would let a hostile /v1/sweep request slip past the
	// server's MaxBatch check and panic in Configs' capacity hint.
	big := 1 << 16
	sw := NewSweep(Config{}).
		Code(make([][]byte, big)...).
		Unroll(make([]int, big)...).
		Loop(make([]int, big)...).
		Events(make([][]EventSpec, big)...)
	if n := sw.Len(); n != math.MaxInt {
		t.Errorf("Len = %d, want saturation at math.MaxInt", n)
	}
}

// TestSweepWireCoversEveryDimension is the codec's field guard: a new
// Sweep dimension that does not travel in sweepJSON would silently drop
// in /v1/sweep requests. Extend sweepJSON (and docs/API.md) first, then
// this list.
func TestSweepWireCoversEveryDimension(t *testing.T) {
	covered := map[string]bool{
		"base": true, "cpus": true, "modes": true, "codes": true,
		"unrolls": true, "loops": true, "events": true,
		"err": true, // deferred builder error; deliberately not wire state
	}
	typ := reflect.TypeOf(Sweep{})
	for i := 0; i < typ.NumField(); i++ {
		if !covered[typ.Field(i).Name] {
			t.Errorf("Sweep field %q has no wire coverage: extend sweepJSON and this guard", typ.Field(i).Name)
		}
	}
	if typ.NumField() != len(covered) {
		t.Errorf("Sweep has %d fields but the guard lists %d — remove stale entries", typ.NumField(), len(covered))
	}
}

func TestSweepJSONErrors(t *testing.T) {
	var sw Sweep
	if err := json.Unmarshal([]byte(`{"unroll":[10]}`), &sw); err == nil ||
		!strings.Contains(err.Error(), "unknown field") {
		t.Errorf("unknown field: got %v", err)
	}
	// A bad asm entry defers to Configs, mirroring the Asm builder method.
	if err := json.Unmarshal([]byte(`{"asm":["not an instruction"]}`), &sw); err != nil {
		t.Fatalf("asm errors must defer to Configs, got decode error %v", err)
	}
	if _, err := sw.Configs(); err == nil {
		t.Error("Configs did not surface the deferred asm error")
	}
	// A sweep with a deferred error does not marshal.
	if _, err := json.Marshal(&sw); err == nil {
		t.Error("marshalling an errored sweep succeeded")
	}
}

// FuzzSweepUnmarshalJSON throws hostile wire bodies at the strict Sweep
// codec — the "sweep" object /v1/sweep and /v1/jobs accept from the
// network. Invariants: no panic; Len agrees with the expansion it
// predicts (checked only for families small enough to expand, since the
// server's MaxBatch check relies on Len to refuse the rest unexpanded);
// and an error-free sweep re-marshals to a fixed point with the same Len.
func FuzzSweepUnmarshalJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"base":{"warm_up_count":1},"asm":["add rax, rbx"],"unrolls":[10,100]}`))
	f.Add([]byte(`{"base":{"n_measurements":3},"cpus":["Skylake","Haswell"],"asm":["add rax, rbx","imul rax, rbx"],"unrolls":[10,100]}`))
	f.Add([]byte(`{"modes":["user","kernel"],"codes":["kA=="],"loops":[0,5]}`))
	f.Add([]byte(`{"base":{"asm":"nop"},"events":[["0E.01 UOPS_ISSUED.ANY"],[]]}`))
	f.Add([]byte(`{"base":{"code_init":"kA=="}}`))
	f.Add([]byte(`{"asm":["not an instruction"]}`))
	f.Add([]byte(`{"modes":["hypervisor"],"asm":["nop"]}`))
	f.Add([]byte(`{"unrols":[1]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sw Sweep
		if err := json.Unmarshal(data, &sw); err != nil {
			return
		}
		n := sw.Len()
		if n <= 4096 {
			jobs, err := sw.Jobs("Skylake", Kernel)
			if (err == nil) != (n > 0) {
				t.Fatalf("Len = %d but Jobs err = %v\ninput: %q", n, err, data)
			}
			if err == nil && len(jobs) != n {
				t.Fatalf("Jobs expanded %d entries, Len = %d\ninput: %q", len(jobs), n, data)
			}
			if !sw.Heterogeneous() {
				cfgs, err := sw.Configs()
				if (err == nil) != (n > 0) || len(cfgs) != len(jobs) {
					t.Fatalf("Configs expanded %d configs (err %v), Len = %d\ninput: %q", len(cfgs), err, n, data)
				}
			}
		}
		if sw.Err() != nil {
			return
		}
		wire, err := json.Marshal(&sw)
		if err != nil {
			t.Fatalf("accepted sweep failed to marshal: %v\ninput: %q", err, data)
		}
		var back Sweep
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("re-unmarshalling own output failed: %v\nwire: %s", err, wire)
		}
		if back.Len() != n {
			t.Fatalf("Len %d after round trip, want %d\nwire: %s", back.Len(), n, wire)
		}
		wire2, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("marshal is not a fixed point:\nfirst:  %s\nsecond: %s", wire, wire2)
		}
	})
}
