// Package prof is the commands' one way to profile a whole run: it adds
// -cpuprofile and -memprofile to a flag set and brackets the run with them.
// A profile only observes — a run's results and output are the same with
// and without one. Read a profile with go tool pprof.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths; an empty path profiles nothing.
type Flags struct {
	cpu, mem *string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (read it with go tool pprof); results are unaffected"),
		mem: fs.String("memprofile", "", "write an allocation profile of the whole run to this file at its end (read it with go tool pprof); results are unaffected"),
	}
}

// Start begins the CPU profile, if one was asked for, and returns the
// function that ends it and writes the allocation profile. Call stop once,
// when the work is done; a run that exits without calling it (log.Fatal)
// leaves its profiles truncated or unwritten.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if *f.cpu != "" {
		if cpu, err = os.Create(*f.cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if *f.mem == "" {
			return nil
		}
		out, err := os.Create(*f.mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // settle the statistics up to the end of the run
		if err := pprof.Lookup("allocs").WriteTo(out, 0); err != nil {
			out.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := out.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}
