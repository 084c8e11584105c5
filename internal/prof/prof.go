// Package prof provides one-shot pprof file capture for batch commands:
// a -cpuprofile/-memprofile flag pair and a Start/stop lifecycle around
// the measured work. The live pprof HTTP mux (internal/obs) already
// covers long-running suites; this package covers the
// run-to-completion case where the profile must land in a file the
// moment the command exits.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

var (
	cpuPath string
	memPath string
)

// Flags registers -cpuprofile and -memprofile on fs (typically
// flag.CommandLine). Call before flag.Parse.
func Flags(fs *flag.FlagSet) {
	fs.StringVar(&cpuPath, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&memPath, "memprofile", "", "write an allocation profile to this file on exit")
}

// Start begins CPU profiling when -cpuprofile was given. The returned
// stop function ends the CPU profile and, when -memprofile was given,
// writes the heap profile; call it (e.g. via defer) after the measured
// work. Both paths are optional, so Start is safe to call
// unconditionally.
func Start() (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: starting CPU profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			cpuFile = nil
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise up-to-date allocation stats
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
			}
			memPath = ""
		}
	}, nil
}
