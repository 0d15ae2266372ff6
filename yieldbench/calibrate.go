package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: its speed drifts by a factor
// of up to two over minutes, as other tenants come and go, which moves
// every timing of a run together. Each workload therefore also times a
// fixed kernel of its own kind of work, code that lives here and no change
// to the server alters, every calibrationEvery of the run, and scales its
// timings by nominalMS over the kernel's time: the figures read as if the
// host ran at the speed it had when the nominal times were taken. The
// kernel's 10th percentile stands for the host's speed, so that kernels
// slowed by the run's own garbage collection do not count.

// calibrationEvery is how often the measured loop times its kernel.
const calibrationEvery = 50 * time.Millisecond

// kernel is one calibration kernel.
type kernel struct {
	name string
	// nominalMS is the kernel's 10th-percentile time measured in a run on
	// a 2-vCPU Intel Xeon VM (2.0 GHz, 4 MiB L2 per core).
	nominalMS float64
	run       func()
}

var (
	// jsonKernel is the hot path's kind of work: JSON encoding and
	// decoding and hashing, as the handler does around every query, and
	// reads scattered over a table as large as the renewal table the
	// queries look up.
	jsonKernel = &kernel{name: "json", nominalMS: 0.95, run: func() {
		runJSONKernel()
		runTableKernel()
	}}
	// convKernel is the renewal sweep's: a direct convolution of two
	// probability vectors.
	convKernel = &kernel{name: "conv", nominalMS: 0.28, run: runConvKernel}
	// mcKernel is the Monte Carlo engine's: a xorshift stream compared
	// against a small table.
	mcKernel = &kernel{name: "mc", nominalMS: 0.42, run: runMCKernel}
)

// kernelSink keeps the kernels' results live.
var kernelSink float64

type kernelRecord struct {
	Name    string            `json:"name"`
	WidthNM float64           `json:"width_nm"`
	PF      []float64         `json:"pf"`
	Tags    map[string]string `json:"tags"`
}

var kernelDoc = func() []kernelRecord {
	out := make([]kernelRecord, 32)
	for i := range out {
		out[i] = kernelRecord{
			Name:    fmt.Sprintf("spec-%d", i),
			WidthNM: 100 + 1.37*float64(i),
			Tags:    map[string]string{"corner": "worst", "node": "45nm"},
		}
		for j := 0; j < 16; j++ {
			out[i].PF = append(out[i].PF, math.Sqrt(float64(i*j+1))*1e-9)
		}
	}
	return out
}()

func runJSONKernel() {
	for i := 0; i < 2; i++ {
		b, err := json.Marshal(kernelDoc)
		if err != nil {
			panic(err)
		}
		var back []kernelRecord
		if err := json.Unmarshal(b, &back); err != nil {
			panic(err)
		}
		h := sha256.Sum256(b)
		kernelSink += float64(h[0]) + float64(len(back))
	}
}

// kernelTable is 8 MiB mapped outside the Go heap, so that it does not
// move the garbage collector's pacing of the server under test.
var kernelTable = func() []uint64 {
	const n = 1 << 20
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mapping the calibration table: %v", err))
	}
	t := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n)
	for i := range t {
		t[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return t
}()

func runTableKernel() {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += kernelTable[x&(uint64(len(kernelTable))-1)]
	}
	kernelSink += float64(acc & 1)
}

var convA, convB, convOut = func() ([]float64, []float64, []float64) {
	a, b := make([]float64, 800), make([]float64, 800)
	for i := range a {
		a[i] = math.Exp(-float64(i) / 100)
		b[i] = math.Exp(-float64(len(b)-i) / 50)
	}
	return a, b, make([]float64, len(a)+len(b))
}()

func runConvKernel() {
	clear(convOut)
	for i, x := range convA {
		out := convOut[i : i+len(convB)]
		for j, y := range convB {
			out[j] += x * y
		}
	}
	kernelSink += convOut[len(convA)-1]
}

var mcTable = func() []float64 {
	t := make([]float64, 512)
	for i := range t {
		t[i] = float64(i) / float64(len(t))
	}
	return t
}()

func runMCKernel() {
	x := uint64(88172645463325252)
	hits := 0
	for i := 0; i < 150000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if float64(x>>11)/(1<<53) < mcTable[x&511] {
			hits++
		}
	}
	kernelSink += float64(hits)
}

// calibrator times a workload's kernel during a run.
type calibrator struct {
	k     *kernel
	times []float64 // ms
	spent time.Duration
	slot  time.Duration
}

func newCalibrator(k *kernel) *calibrator { return &calibrator{k: k, slot: -1} }

// measure times the kernel once.
func (c *calibrator) measure() {
	start := time.Now()
	c.k.run()
	d := time.Since(start)
	c.spent += d
	c.times = append(c.times, float64(d)/float64(time.Millisecond))
}

// tick times the kernel if the loop, at offset at, has entered a new
// calibrationEvery slot.
func (c *calibrator) tick(at time.Duration) {
	if slot := at / calibrationEvery; slot != c.slot {
		c.slot = slot
		c.measure()
	}
}

// hostMS is the kernel's 10th-percentile time in this run.
func (c *calibrator) hostMS() float64 { return quantile(c.times, 0.1) }

// scale converts a time measured in this run to the nominal host speed.
func (c *calibrator) scale() float64 { return c.k.nominalMS / c.hostMS() }
