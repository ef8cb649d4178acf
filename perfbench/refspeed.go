package main

import (
	"runtime"
	"slices"
	"sync"
	"syscall"
	"unsafe"
)

// Time at the reference speed.
//
// The 2-vCPU hosts this benchmark is sized for are shared, and the wall time
// of one and the same run moves by up to 2× from run to run: other guests
// hold the host's cores while the benchmark's threads wait, and the cores
// themselves run slower for spells of ten seconds and more (a fixed loop
// took 14 ms a pass in one ten-second window and 23 ms in the next, its CPU
// time following its wall time). So the gated times are not wall times.
// Each timed unit (an epoch, a set-up, a checkpoint, a resume) is measured
// as the CPU time of the whole process while it runs: every thread of the
// program, the collector included, and none of the time the process waited
// or the host ran other guests. That time is then scaled to the reference
// speed: multiplied by refNominalMs over the thread CPU time of a fixed
// reference kernel, sampled before each unit and after the last, which a
// slow core stretches as it stretches the program. Each unit is scaled by
// the median of the samples around it. The wall times stay in the result
// document.
//
// CPU time counts work, not waiting: a change that only spreads the same
// work over both cores shows in the wall times, not in the gated metrics.

// refNominalMs is close to the reference sample's median on the reference
// machine (2 vCPUs of an Intel Xeon, Go 1.24), so that scaled times there
// read about as CPU times.
const refNominalMs = 3.3

// refWindow is how many reference samples on each side of a unit its scale
// factor is the median of.
const refWindow = 4

// refRuns is how many runs of the reference kernel one sample is the median
// of.
const refRuns = 3

const (
	refSlots  = 1 << 17 // entries of the 1 MiB hash table
	refKeys   = 24000   // keys inserted, then looked up, per run
	refPasses = 6       // passes over the keys per run
	refSort   = 4096    // floats sorted per run
	refWide   = 1 << 23 // entries of the 64 MiB array read at random
	refReads  = 100000  // random reads of the wide array per run
)

// refWorker is the reference kernel: inserts and lookups in an
// open-addressing table of random keys (the scattered access of maps and
// graph indexes), float arithmetic and a sort (the scoring and ranking
// code), and random reads over an array far larger than the core's caches
// (the heap of a large population). Its two large buffers live outside the
// Go heap, so the kernel neither adds garbage nor changes when the collector
// runs.
type refWorker struct {
	table  []uint64
	floats []float64
	wide   []uint64
	sink   uint64
}

func (w *refWorker) run(seed uint64) {
	clear(w.table)
	x, hits := seed|1, uint64(0)
	for pass := 0; pass < refPasses; pass++ {
		y := x
		for i := 0; i < refKeys; i++ {
			y ^= y << 13
			y ^= y >> 7
			y ^= y << 17
			h := (y * 0x9E3779B97F4A7C15) >> (64 - 17)
			for w.table[h] != 0 && w.table[h] != y {
				h = (h + 1) & (refSlots - 1)
			}
			if w.table[h] == y {
				hits++
			} else {
				w.table[h] = y
			}
		}
	}
	f := 1.0
	for i := range w.floats {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*0.999 + float64(x>>40)*1e-9
		w.floats[i] = f * float64(x&1023)
	}
	slices.Sort(w.floats)
	for i := 0; i < refReads; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		hits += w.wide[x&(refWide-1)]
	}
	w.sink += hits + uint64(w.floats[refSort/2])
}

// offHeap returns n zeroed uint64s mapped outside the Go heap, touched
// once so that the kernel never pays for the first access.
func offHeap(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: mapping the reference kernel's buffers: " + err.Error())
	}
	xs := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	for i := range xs {
		xs[i] = uint64(i)
	}
	return xs
}

// refWork is the reference kernel's state; it is built on first use.
var refWork = sync.OnceValue(func() *refWorker {
	w := &refWorker{table: offHeap(refSlots), floats: make([]float64, refSort), wide: offHeap(refWide)}
	w.run(0)
	return w
})

var refSeed uint64

// refSample runs the reference kernel once on the calling goroutine and
// returns the CPU time its thread spent, in milliseconds. Samples must not
// overlap: call it from one goroutine at a time.
func refSample() float64 {
	w := refWork()
	refSeed++
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuMs(threadCPUClock)
	w.run(refSeed)
	return cpuMs(threadCPUClock) - t0
}

// The clocks cpuMs reads (Linux clock ids).
const (
	processCPUClock = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	threadCPUClock  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

// cpuMs returns the CPU time of the process or the calling thread in
// milliseconds. The kernel keeps it to the nanosecond and leaves out time
// the host ran other guests (steal).
func cpuMs(clock uintptr) float64 {
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e6
}

// timedUnits collects the wall and process CPU times of consecutive timed
// units together with a reference sample before each unit and one after
// the last.
type timedUnits struct {
	wallMs []float64
	cpuMs  []float64
	refMs  []float64
	cpu0   float64
}

// before takes the reference sample that precedes the next unit: the
// median of refRuns runs of the kernel, so that a run that finds the
// kernel's buffers evicted by the unit before does not count.
func (u *timedUnits) before() {
	var runs [refRuns]float64
	for i := range runs {
		runs[i] = refSample()
	}
	u.refMs = append(u.refMs, median(runs[:]))
	u.cpu0 = cpuMs(processCPUClock)
}

// add records the wall time of the unit that began after the last before,
// and reads its CPU time.
func (u *timedUnits) add(wallMs float64) {
	u.cpuMs = append(u.cpuMs, cpuMs(processCPUClock)-u.cpu0)
	u.wallMs = append(u.wallMs, wallMs)
}

// done takes the reference sample after the last unit.
func (u *timedUnits) done() { u.before() }

// scaled returns each unit's CPU time at the reference speed.
func (u *timedUnits) scaled() []float64 {
	return scaleToReference(u.cpuMs, u.refMs)
}

// scaleToReference multiplies the time of unit i, which ran between
// reference samples i and i+1, by refNominalMs over the median of the
// samples from i-refWindow+1 to i+refWindow.
func scaleToReference(unitMs, refMs []float64) []float64 {
	out := make([]float64, len(unitMs))
	for i, w := range unitMs {
		lo, hi := max(0, i-refWindow+1), min(len(refMs), i+refWindow+1)
		out[i] = w * refNominalMs / median(refMs[lo:hi])
	}
	return out
}
