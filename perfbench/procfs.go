package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is the kernel's CLK_TCK, the unit of the utime/stime fields of
// /proc/<pid>/stat, read from the AT_CLKTCK auxiliary-vector entry.
func clockTicks() int64 {
	const atClkTck = 17
	raw, err := os.ReadFile("/proc/self/auxv")
	if err == nil {
		for i := 0; i+16 <= len(raw); i += 16 {
			if binary.LittleEndian.Uint64(raw[i:]) == atClkTck {
				if v := int64(binary.LittleEndian.Uint64(raw[i+8:])); v > 0 {
					return v
				}
			}
		}
	}
	return 100
}

// procCPU returns the CPU time (user + system) process pid has used so far,
// at CLK_TCK resolution.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ") ".
	s := string(raw)
	close := strings.LastIndexByte(s, ')')
	if close < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[close+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	var ticks int64
	for _, field := range f[11:13] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / time.Duration(clockTicks()), nil
}

// selfCPU returns this process's CPU time at microsecond resolution.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB returns process pid's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %d", pid)
}

// fsType names the filesystem holding dir (for the environment record: a
// journal fsync on tmpfs and on a shared disk measure different things).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// stealTicks returns the machine's steal and total CPU time from /proc/stat
// (in CLK_TCK ticks): time a hypervisor gave this VM's CPUs to someone else
// shows up as steal and stretches every wall-clock figure of a run.
func stealTicks() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// cpuMark is a reading of a CPU-time counter at a wall-clock instant.
type cpuMark struct {
	at  time.Time
	cpu time.Duration
}

// measureCPU runs phase and reads the counter when it starts, every window
// while it runs, and when it ends, so work before the phase (set-up) or
// after it (correctness checks) never lands between the first and last mark.
func measureCPU(read func() (time.Duration, error), window time.Duration, phase func()) ([]cpuMark, error) {
	var mu sync.Mutex
	var marks []cpuMark
	var firstErr error
	mark := func() {
		v, err := read()
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		marks = append(marks, cpuMark{time.Now(), v})
	}
	mark()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(window)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				mark()
			}
		}
	}()
	phase()
	close(stop)
	<-done
	mark()
	return marks, firstErr
}

// cpuTotal is the CPU time between the first and the last mark.
func cpuTotal(marks []cpuMark) time.Duration {
	return marks[len(marks)-1].cpu - marks[0].cpu
}

// cpuPerOp returns, for each marked window, the CPU time per operation
// completed in it (operations given by their completion instants). Windows
// shorter than half of window (the tail after the last full one) and
// windows that completed nothing are skipped.
func cpuPerOp(marks []cpuMark, window time.Duration, done []time.Time) []float64 {
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var per []float64
	for w := 1; w < len(marks); w++ {
		if marks[w].at.Sub(marks[w-1].at) < window/2 {
			continue
		}
		lo := sort.Search(len(done), func(i int) bool { return !done[i].Before(marks[w-1].at) })
		hi := sort.Search(len(done), func(i int) bool { return !done[i].Before(marks[w].at) })
		if n := hi - lo; n > 0 {
			per = append(per, ms(marks[w].cpu-marks[w-1].cpu)/float64(n))
		}
	}
	return per
}
