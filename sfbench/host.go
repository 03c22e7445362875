package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint names the host a run measured on.
type fingerprint struct {
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
}

func hostFingerprint() fingerprint {
	return fingerprint{CPU: cpuModel(), NProc: runtime.NumCPU(), Go: runtime.Version()}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// probeSink keeps the probe loop's result live.
var probeSink uint64

// hostProbe times a fixed integer loop that touches no memory and calls
// nothing in the program, and returns millions of generator steps per
// second: a slower probe means the host itself slowed, whatever the
// program did. Four independent xorshift chains keep several ALU ports
// busy, as the DP kernels do, so the probe also slows when another
// thread shares the core.
func hostProbe() float64 {
	const steps = 1 << 22
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	start := time.Now()
	for i := 0; i < steps; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
	}
	el := time.Since(start)
	probeSink += a + b + c + d
	return 4 * steps / el.Seconds() / 1e6
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB returns the process's resident set in MiB, from the second
// field of /proc/self/statm (resident pages).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// sampleRSS samples the resident set every 10 ms until stop is closed,
// then sends the largest sample.
func sampleRSS(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		peak := rssMB()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- max(peak, rssMB())
				return
			case <-t.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return out
}
