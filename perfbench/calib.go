package main

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// The benchmark runs on shared machines whose speed changes under it: a
// fixed loop can run 1.5–2× slower for many minutes at a time, in CPU
// time as well as in wall time, depending on what else the host runs. A
// window of 30 s cannot average that away. So the benchmark also times
// a fixed calibration kernel — code of its own, which no change to the
// program can speed up — before the first set-up, after each set-up and
// after each slice of the window, and expresses every time it reports
// in the seconds of a host on which that kernel takes calibRefWall
// (wall) and calibRefCPU (CPU). When the host slows down, the kernel
// and the workload slow down together, and their ratio moves far less
// than either; README.md gives what it cancels and what it does not.
//
// The kernel mixes the kinds of work the simulator does: a branchy
// interpreter loop over a small register file, dependent random reads
// in a table larger than the private caches, and clearing a buffer, as
// allocating a simulated machine's memory does. It runs in chunks
// shared out to as many goroutines as the workload has workers. Its
// buffers are mapped outside the Go heap, so they add nothing to the
// garbage collector's work or to rss_mb.
//
// Changing the kernel or the constants re-bases every time the
// benchmark reports.

const (
	// The kernel's median times on a quiet 2-vCPU Xeon host.
	calibRefWall = 54 * time.Millisecond
	calibRefCPU  = 105 * time.Millisecond

	calibTableWords = 1 << 20 // 4 MiB of uint32 per worker
	calibClearBytes = 1 << 20 // 1 MiB per worker
	calibChunks     = 32
	calibReads      = 1 << 15
	calibSteps      = 1 << 17
	calibClears     = 2
)

// calibrator owns the kernel's buffers, one set per worker.
type calibrator struct {
	tables [][]uint32
	bufs   [][]byte
	maps   [][]byte
	taken  []calibration // every timed calibration, in run order
	sink   uint64
}

func newCalibrator() (*calibrator, error) {
	c := &calibrator{}
	for w := 0; w < workers; w++ {
		tm, err := syscall.Mmap(-1, 0, 4*calibTableWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			c.close()
			return nil, err
		}
		c.maps = append(c.maps, tm)
		bm, err := syscall.Mmap(-1, 0, calibClearBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			c.close()
			return nil, err
		}
		c.maps = append(c.maps, bm)
		table := unsafeWords(tm)
		x := uint64(0x9e3779b97f4a7c15) + uint64(w)
		for i := range table {
			x = xorshift(x)
			table[i] = uint32(x)
		}
		c.tables = append(c.tables, table)
		c.bufs = append(c.bufs, bm)
	}
	// One untimed round faults the pages in and warms the code.
	c.measure()
	c.taken = nil
	return c, nil
}

func (c *calibrator) close() {
	for _, m := range c.maps {
		syscall.Munmap(m)
	}
	c.maps, c.tables, c.bufs = nil, nil, nil
}

// calibration is one timing of the kernel.
type calibration struct {
	wall, cpu time.Duration
}

// measure runs the kernel calibChunks times, shared out to every
// worker through one counter, and records its wall and process CPU
// time. Garbage collection is held off
// while it runs: a collection cycle the workload left running is
// finished first, so the kernel is timed against the host alone.
func (c *calibrator) measure() {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	var wg sync.WaitGroup
	var next atomic.Int64
	sums := make([]uint64, workers)
	c0, t0 := cpuTime(), time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := next.Add(1); i <= calibChunks; i = next.Add(1) {
				sums[w] += calibKernel(c.tables[w], c.bufs[w], uint64(i))
			}
		}(w)
	}
	wg.Wait()
	cal := calibration{wall: time.Since(t0), cpu: cpuTime() - c0}
	for _, s := range sums {
		c.sink += s
	}
	c.taken = append(c.taken, cal)
}

// factors is how many times slower than the reference host the run's
// calibrations found the host, by their median: one factor for wall
// time and one for CPU time.
func (c *calibrator) factors() (wall, cpu float64) {
	walls := make([]float64, len(c.taken))
	cpus := make([]float64, len(c.taken))
	for i, t := range c.taken {
		walls[i], cpus[i] = float64(t.wall), float64(t.cpu)
	}
	return median(walls) / float64(calibRefWall), median(cpus) / float64(calibRefCPU)
}

// wallMs lists the calibrations' wall times in milliseconds.
func (c *calibrator) wallMs() []float64 {
	ms := make([]float64, len(c.taken))
	for i, t := range c.taken {
		ms[i] = float64(t.wall.Microseconds()) / 1e3
	}
	return ms
}

// unsafeWords views a mapped buffer as uint32 words.
func unsafeWords(b []byte) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calibKernel is the fixed work of one calibration worker.
func calibKernel(table []uint32, buf []byte, seed uint64) uint64 {
	mask := uint64(len(table) - 1)

	// Dependent random reads: each address depends on the last value.
	x := seed
	for i := 0; i < calibReads; i++ {
		x = xorshift(x) ^ uint64(table[x&mask])
	}

	// A branchy interpreter: the opcode comes from the table, so the
	// dispatch branch is unpredictable, as in an instruction simulator.
	var regs [8]uint64
	regs[0] = x
	pc := x
	for i := 0; i < calibSteps; i++ {
		ins := table[pc&4095]
		a, b := ins>>3&7, ins>>6&7
		switch ins & 7 {
		case 0:
			regs[a] += regs[b] + 1
		case 1:
			regs[a] ^= regs[b] << 1
		case 2:
			regs[a] = regs[a]*31 + uint64(ins)
		case 3:
			if regs[a] > regs[b] {
				regs[a], regs[b] = regs[b], regs[a]
			}
		case 4:
			regs[a] -= regs[b] >> 3
		case 5:
			regs[a] = uint64(table[(regs[b]+uint64(i))&4095])
		case 6:
			regs[a] |= 1 << (regs[b] & 63)
		default:
			pc += regs[a] & 15
		}
		pc++
	}

	// Clearing memory, the cost of allocating a machine's state.
	for i := 0; i < calibClears; i++ {
		clear(buf)
		buf[(x+uint64(i))%uint64(len(buf))] = byte(regs[i&7])
	}

	return x + regs[0] + regs[1] + uint64(buf[x%uint64(len(buf))])
}
