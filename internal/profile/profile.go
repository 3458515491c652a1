// Package profile wires the -cpuprofile and -memprofile flags that the
// commands share onto the standard library's runtime/pprof. Read a profile
// with
//
//	go tool pprof -top BINARY FILE
package profile

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile file names a command was given.
type Flags struct {
	cpu, mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to `file`")
	fs.StringVar(&f.mem, "memprofile", "", "write a heap profile to `file` when the run ends")
	return f
}

// Start creates the requested profile files and starts the CPU profile,
// so a bad path fails before the command does any work. The returned stop
// ends the CPU profile and writes the heap profile; call it once the work
// is done, on every path.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu, mem *os.File
	if f.mem != "" {
		if mem, err = os.Create(f.mem); err != nil {
			return nil, err
		}
	}
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			runtime.GC() // settle the heap statistics the profile reports
			errs = append(errs, pprof.WriteHeapProfile(mem), mem.Close())
		}
		return errors.Join(errs...)
	}, nil
}
