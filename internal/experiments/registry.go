package experiments

import (
	"fmt"
	"runtime"
	"sort"
)

// RunOptions configures an experiment run.
type RunOptions struct {
	// OutDir receives image/timeline artifacts.
	OutDir string
	// Workers bounds CPU parallelism (0 = GOMAXPROCS).
	Workers int
}

// Runner executes one experiment and returns its result tables.
type Runner func(opts RunOptions) ([]*Table, error)

// registry maps experiment ids (the paper's table/figure numbers) to their
// drivers. It is built per call, not held in a package variable: a variable
// would keep every runner reachable from any binary that imports the package,
// so fdkrecon, which calls only BuildScenario and ScaledSystem, would link
// every experiment.
func registry() map[string]Runner {
	return map[string]Runner{
		"table2": func(o RunOptions) ([]*Table, error) { return one(table2(o.Workers)) },
		"table4": func(o RunOptions) ([]*Table, error) { return one(table4()) },
		"table5": func(o RunOptions) ([]*Table, error) {
			real, err := table5Real(o.Workers)
			if err != nil {
				return nil, err
			}
			modeled, err := table5Modeled()
			if err != nil {
				return nil, err
			}
			return []*Table{real, modeled}, nil
		},
		"fig8":  func(o RunOptions) ([]*Table, error) { return one(fig8(o.OutDir, o.Workers)) },
		"fig10": func(o RunOptions) ([]*Table, error) { return one(fig10(o.OutDir, o.Workers)) },
		"fig11": func(o RunOptions) ([]*Table, error) { return one(fig11(o.OutDir, o.Workers)) },
		"fig12": func(o RunOptions) ([]*Table, error) { return one(fig12(o.Workers)) },
		"fig13": func(o RunOptions) ([]*Table, error) {
			sim, err := fig13()
			if err != nil {
				return nil, err
			}
			real, err := fig13Real(o.Workers)
			if err != nil {
				return nil, err
			}
			return []*Table{sim, real}, nil
		},
		"fig14":     func(o RunOptions) ([]*Table, error) { return one(fig14()) },
		"fig15":     func(o RunOptions) ([]*Table, error) { return one(fig15()) },
		"quality":   func(o RunOptions) ([]*Table, error) { return one(quality(o.Workers)) },
		"windows":   func(o RunOptions) ([]*Table, error) { return one(windows(o.Workers)) },
		"scalecomp": func(o RunOptions) ([]*Table, error) { return one(scaleComparison()) },
		"sparse":    func(o RunOptions) ([]*Table, error) { return one(sparseViews(o.Workers)) },
		"ablations": func(o RunOptions) ([]*Table, error) {
			var out []*Table
			for _, f := range []func(int) (*Table, error){
				ablationReduce, ablationDifferential, ablationRingDepth,
				ablationHierarchicalReduce, ablationFilterPlacement,
			} {
				t, err := f(o.Workers)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
			return out, nil
		},
	}
}

func one(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// Names lists the registered experiment ids in order.
func Names() []string {
	r := registry()
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes the named experiment ("all" runs every one in order).
func Run(name string, opts RunOptions) ([]*Table, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if name == "all" {
		var out []*Table
		for _, n := range Names() {
			ts, err := Run(n, opts)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", n, err)
			}
			out = append(out, ts...)
		}
		return out, nil
	}
	r, ok := registry()[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(opts)
}
