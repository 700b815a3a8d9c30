// Command tracegen synthesizes a workload trace and stores it in the
// compact BLT1 binary format, building the offline trace library the
// paper's §V-B training methodology calls for.
//
// Example:
//
//	tracegen -workload 605.mcf_s -input 1 -budget 5000000 -o mcf.1.blt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"branchlab/internal/trace"
	"branchlab/internal/workload"
)

func main() {
	var (
		name   = flag.String("workload", "", "workload name")
		input  = flag.Int("input", 0, "application input index")
		budget = flag.Uint64("budget", 5_000_000, "instruction budget")
		out    = flag.String("o", "", "output file (default <workload>.<input>.blt)")
	)
	flag.Parse()
	if err := run(context.Background(), *name, *input, *budget, *out); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, input int, budget uint64, out string) error {
	spec, ok := workload.ByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if out == "" {
		out = fmt.Sprintf("%s.%d.blt", spec.Name, input)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()

	s := spec.Stream(ctx, input, budget)
	defer s.Close()
	w := trace.NewWriter(f)
	var n uint64
	for blk := s.NextBlock(); len(blk) > 0; blk = s.NextBlock() {
		for i := range blk {
			if err := w.WriteInst(&blk[i]); err != nil {
				return err
			}
		}
		n += uint64(len(blk))
	}
	if err := s.Err(); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d instructions to %s (%.2f bytes/inst)\n",
		n, out, float64(info.Size())/float64(n))
	return nil
}
