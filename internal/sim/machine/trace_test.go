package machine

import (
	"testing"

	"nanobench/internal/x86"
)

// TestEngineDefaultIsTrace pins trace mode as the default engine: the
// zero-value Machine runs the trace tier, and SetEngine round-trips both
// tiers. The serialization counter values and golden experiment
// outputs elsewhere in the suite are therefore all produced — and pinned
// — under trace mode.
func TestEngineDefaultIsTrace(t *testing.T) {
	m := newTestMachine(t)
	if got := m.Engine(); got != EngineTrace {
		t.Fatalf("default engine = %v, want %v", got, EngineTrace)
	}
	for _, e := range []Engine{EngineStep, EngineTrace} {
		m.SetEngine(e)
		if got := m.Engine(); got != e {
			t.Fatalf("SetEngine(%v) round-trips to %v", e, got)
		}
	}
}

// TestTraceBlocksDroppedOnCodeWrite is the port-pick-cache invalidation
// regression test: trace blocks (and their recorded schedules) are built
// during Run, and any write into the code region — here a WriteData call
// — must discard them with the program before the next dispatch.
func TestTraceBlocksDroppedOnCodeWrite(t *testing.T) {
	m := newTestMachine(t)
	code := x86.MustAssemble(`
		mov r13, 8
	loop:
		add rax, 1
		add rbx, 2
		dec r13
		jnz loop
		ret`)
	if err := m.WriteCode(testCodeBase, code); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(testCodeBase); err != nil {
		t.Fatal(err)
	}
	if len(m.prog.blocks) == 0 {
		t.Fatal("no trace blocks built by a trace-mode run")
	}

	// A data write outside the program leaves the blocks alone...
	if err := m.WriteData(testDataBase, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if len(m.prog.blocks) == 0 {
		t.Fatal("data write outside the program dropped trace blocks")
	}
	// ...but one byte into the code region drops every block and schedule.
	ver := m.decVersion
	if err := m.WriteData(testCodeBase, code[:1]); err != nil {
		t.Fatal(err)
	}
	if len(m.prog.blocks) != 0 || len(m.prog.blockOf) != 0 {
		t.Fatalf("code write left %d trace blocks cached", len(m.prog.blocks))
	}
	if m.decVersion == ver {
		t.Fatal("code write did not bump decVersion")
	}
	// The next run executes through the slow decode path (no program, no
	// blocks); reinstalling the image rebuilds blocks from scratch.
	if _, err := m.Run(testCodeBase); err != nil {
		t.Fatal(err)
	}
	if len(m.prog.blocks) != 0 {
		t.Fatal("trace blocks cached without an installed program")
	}
	if err := m.WriteCode(testCodeBase, code); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(testCodeBase); err != nil {
		t.Fatal(err)
	}
	if len(m.prog.blocks) == 0 {
		t.Fatal("no trace blocks rebuilt after reinstall")
	}
}

// TestTraceSelfModifyingLoopMatchesStep runs a loop that patches the
// imm64 field of a MOV inside its own trace block: the store must drop
// the cached block mid-run, the patched semantics must take effect on the
// next iteration, and both engines must agree on the final state.
// This is the invalidation path a stale port-pick cache would break.
func TestTraceSelfModifyingLoopMatchesStep(t *testing.T) {
	var buf []byte
	emit := func(in x86.Instr) {
		out, err := x86.EncodeInstr(buf, in)
		if err != nil {
			t.Fatalf("encode %s: %v", in.String(), err)
		}
		buf = out
	}
	const patched = 0xDEAD
	emit(x86.I(x86.MOV, x86.RCX, x86.Imm(patched)))
	emit(x86.I(x86.MOV, x86.RBX, x86.Imm(0)))
	emit(x86.I(x86.MOV, x86.R13, x86.Imm(3)))
	loopStart := len(buf)
	// Patch slot: the imm64 of this MOV (2 bytes of REX.W+opcode, then 8
	// bytes of immediate) is overwritten by the store below.
	slotStart := len(buf)
	const initial = 1<<40 | 0x1111
	emit(x86.I(x86.MOV, x86.RAX, x86.Imm(initial)))
	if len(buf)-slotStart != 10 {
		t.Fatalf("patch slot encoded to %d bytes, want 10", len(buf)-slotStart)
	}
	emit(x86.I(x86.ADD, x86.RBX, x86.RAX))
	emit(x86.I(x86.MOV, x86.MemAt(testCodeBase+uint32(slotStart)+2), x86.RCX))
	emit(x86.I(x86.DEC, x86.R13))
	emit(x86.I(x86.JNZ, x86.Imm(int64(loopStart)-int64(len(buf)+6))))
	emit(x86.I(x86.RET))

	states := make(map[Engine]string)
	for _, e := range []Engine{EngineStep, EngineTrace} {
		m := benchmarkishMachine(t)
		m.SetEngine(e)
		if err := m.WriteCode(testCodeBase, buf); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(testCodeBase)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		// Iteration 1 adds the original immediate and patches the slot;
		// iterations 2 and 3 load and add the patched value.
		if got := m.Reg(x86.RAX); got != patched {
			t.Fatalf("%v: RAX = %#x, want patched %#x", e, got, uint64(patched))
		}
		if got, want := m.Reg(x86.RBX), uint64(initial+2*patched); got != want {
			t.Fatalf("%v: RBX = %#x, want %#x", e, got, want)
		}
		states[e] = machineState(t, m, res)
	}
	if states[EngineTrace] != states[EngineStep] {
		t.Fatalf("trace diverges from step:\nstep:\n%s\ntrace:\n%s",
			states[EngineStep], states[EngineTrace])
	}
}
