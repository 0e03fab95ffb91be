package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostCPU is one reading of the aggregate "cpu" line of /proc/stat, in
// clock ticks.
type hostCPU struct {
	total, idle, steal float64
}

func readHostCPU() (hostCPU, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("unexpected /proc/stat head %q", line)
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("bad /proc/stat field %q", s)
		}
		h.total += v
		switch i {
		case 3, 4:
			h.idle += v
		case 7:
			h.steal = v
		}
	}
	return h, nil
}

// stealSince returns the share of the time since from in which this
// machine wanted to run that the hypervisor gave to someone else. Steal
// only accrues while a vCPU is runnable, so idle time is left out.
func stealSince(from hostCPU) float64 {
	now, err := readHostCPU()
	if err != nil {
		return 0
	}
	wanted := (now.total - from.total) - (now.idle - from.idle)
	if wanted <= 0 {
		return 0
	}
	return (now.steal - from.steal) / wanted
}

const (
	// quietSteal is the steal share below which the host counts as quiet.
	quietSteal = 0.005
	// gateWindow and gateBudget bound the quiet-host gate: it waits for
	// one quiet window, but never longer than the budget, because the
	// whole run has a wall-clock cap.
	gateWindow = time.Second
	gateBudget = 4 * time.Second
)

// quietGate holds the measured phase back until a busy window shows the
// host quiet, or the budget runs out. busy is the steal share of the
// phase just ended (the set-ups), which serves as the first window. It
// returns the last window's steal share.
func quietGate(ctx context.Context, busy float64) float64 {
	steal := busy
	deadline := time.Now().Add(gateBudget)
	for steal >= quietSteal && time.Now().Before(deadline) && ctx.Err() == nil {
		from, err := readHostCPU()
		if err != nil {
			return steal
		}
		spin(gateWindow)
		steal = stealSince(from)
	}
	return steal
}

// spin keeps one CPU busy for d, so that steal can be observed.
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

var spinSink uint64

// selfCPUSeconds is the harness's own user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
