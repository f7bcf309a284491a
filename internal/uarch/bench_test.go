package uarch

import (
	"testing"

	"nanobench/internal/sim/machine"
)

var machineSink *machine.Machine

// BenchmarkMachineNew measures building one fresh simulated machine per
// Table I model: the fixed cost every fresh-machine evaluation pays
// before its first instruction. Run it with -benchmem; construction cost
// should track the state a run touches, not the modelled physical memory
// or L3 size.
func BenchmarkMachineNew(b *testing.B) {
	for _, c := range Table1() {
		c := c
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := c.NewMachine(1)
				if err != nil {
					b.Fatal(err)
				}
				machineSink = m
			}
		})
	}
}
