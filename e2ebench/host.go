package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// stamp is the host and working-set line printed before the result, so a
// number can be read against the machine and input that produced it.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Traced     bool    `json:"traced"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Threads    int     `json:"threads"`
	GoVersion  string  `json:"go_version"`
	L2Bytes    int64   `json:"l2_bytes"`
	L3Bytes    int64   `json:"l3_bytes"`
	Vertices   int     `json:"vertices"`
	Edges      int64   `json:"edges"`
	CSRBytes   int64   `json:"csr_bytes"`
	WorkingSet string  `json:"working_set"`
	Attempted  int64   `json:"attempted"`
	Failed     int64   `json:"failed"`
	FailFrac   float64 `json:"fail_frac"`
	// CPUSteal is the share of all CPUs' time over the run that the
	// hypervisor gave to other guests; absent where /proc/stat is not
	// readable. A run with a high share was slowed by its neighbours.
	CPUSteal *float64 `json:"cpu_steal_frac,omitempty"`
	// Wall holds wall-clock counterparts of the end-to-end metrics, which
	// are CPU times; on a shared host they move with the neighbours' load.
	Wall map[string]float64 `json:"wall,omitempty"`
	// Failures holds the first few failure reasons.
	Failures []string `json:"failures,omitempty"`
}

func printStamp(w io.Writer, workload string, r *runner) error {
	st := stamp{
		Workload:   workload,
		Seed:       r.seed,
		Traced:     r.traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Threads:    pprof.Lookup("threadcreate").Count(),
		GoVersion:  runtime.Version(),
		L2Bytes:    cacheSize(2),
		L3Bytes:    cacheSize(3),
		Vertices:   r.vertices,
		Edges:      r.edges,
		CSRBytes:   r.csrBytes,
		Attempted:  r.attempted,
		Failed:     r.failed,
		Failures:   r.failureExamples,
	}
	if !r.traced {
		st.Wall = r.wall
	}
	if a, b := r.cpuStart, readCPUTimes(); a.total > 0 && b.total > a.total {
		frac := float64(b.steal-a.steal) / float64(b.total-a.total)
		st.CPUSteal = &frac
	}
	st.WorkingSet = workingSet(st.CSRBytes, st.L2Bytes, st.L3Bytes)
	if r.attempted > 0 {
		st.FailFrac = float64(r.failed) / float64(r.attempted)
	}
	return json.NewEncoder(w).Encode(map[string]stamp{"stamp": st})
}

// cpuTimes are the all-CPU tick totals of /proc/stat: every state, and
// the steal state alone. Both are zero where the file is not readable.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// workingSet says where the graph's CSR sits relative to the caches.
func workingSet(csr, l2, l3 int64) string {
	switch {
	case l2 == 0 || l3 == 0:
		return "cache sizes unknown"
	case csr <= l2:
		return "fits L2"
	case csr <= l3:
		return "exceeds L2, fits L3"
	}
	return "exceeds L3"
}

// cacheSize reads the size of CPU 0's unified or data cache at level from
// sysfs; 0 when unavailable.
func cacheSize(level int) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, _ := os.ReadFile(filepath.Join(d, "level"))
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			return 0
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0
		}
		return n * mult
	}
	return 0
}
