// Command qtenon-bench regenerates the paper's tables and figures from
// the implemented system models.
//
// Usage:
//
//	qtenon-bench                 # run every experiment at full scale
//	qtenon-bench -exp fig13      # one experiment
//	qtenon-bench -quick          # CI-sized parameters
//	qtenon-bench -list           # list experiment ids
//	qtenon-bench -json out.json  # also emit machine-readable timings
//	qtenon-bench -method dense   # pin the simulation engine (auto|dense|clifford|product|sharded)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"qtenon/internal/bench"
	"qtenon/internal/route"
	"qtenon/internal/wallclock"
)

// jsonReport is the machine-readable run record the -json flag emits —
// the in-tree perf trajectory (BENCH_6.json at the repo root is one of
// these, regenerated per perf-relevant PR).
type jsonReport struct {
	Schema      string           `json:"schema"`
	GoVersion   string           `json:"go_version"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Quick       bool             `json:"quick"`
	Experiments []jsonExperiment `json:"experiments"`
	CacheHits   int64            `json:"cache_hits"`
	CacheMisses int64            `json:"cache_misses"`
}

type jsonExperiment struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	// NsPerOp is the wall time divided by the unique runs the experiment
	// executed (cache misses attributed to it); AllocsPerOp is the heap
	// allocation count over the same denominator. Together they make the
	// bench trajectory comparable across PRs even as experiments grow
	// more (or fewer) cached sweep points.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Method is the engine pin the experiment ran under ("auto" unless
	// -method forced one).
	Method string `json:"method"`
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		quick      = flag.Bool("quick", false, "run reduced-scale experiments")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		csvDir     = flag.String("csv", "", "also write sweep data (fig11/fig12) as CSV into this directory")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		jsonOut    = flag.String("json", "", "write per-experiment wall-clock timings as JSON to this file")
		method     = flag.String("method", "auto", "simulation engine: auto routes per circuit; dense|clifford|product|sharded pin one")
	)
	flag.Parse()
	forced, err := route.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
		os.Exit(1)
	}

	if *list {
		fmt.Println(strings.Join(bench.Names(), "\n"))
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
				os.Exit(1)
			}
		}()
	}
	if *csvDir != "" {
		sc := bench.Full
		if *quick {
			sc = bench.QuickScale
		}
		sc.Method = forced
		for _, spsa := range []bool{false, true} {
			rows, err := bench.SweepRows(sc, spsa)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
				os.Exit(1)
			}
			name := "fig11_gd.csv"
			if spsa {
				name = "fig12_spsa.csv"
			}
			path := *csvDir + "/" + name
			if err := os.WriteFile(path, []byte(bench.SweepCSV(rows)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d rows)\n", path, len(rows))
		}
		srows, err := bench.ScaleRows(sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
			os.Exit(1)
		}
		path := *csvDir + "/fig17_scalability.csv"
		if err := os.WriteFile(path, []byte(bench.ScaleCSV(srows)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", path, len(srows))
		fmt.Println(bench.CacheStatsLine())
		return
	}
	sc := bench.Full
	if *quick {
		sc = bench.QuickScale
	}
	sc.Method = forced
	names := bench.Names()
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	rep := jsonReport{
		Schema:     "qtenon-bench/2",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		_, missesBefore := bench.CacheStats()
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		sw := wallclock.Start()
		out, err := bench.Run(name, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qtenon-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := sw.Elapsed()
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		_, missesAfter := bench.CacheStats()
		// Ops = unique runs this experiment executed. An experiment fully
		// served from cache counts as one op so the ratios stay finite.
		ops := missesAfter - missesBefore
		if ops < 1 {
			ops = 1
		}
		fmt.Print(out)
		fmt.Printf("[%s completed in %v]\n\n", name, elapsed.Round(time.Millisecond))
		rep.Experiments = append(rep.Experiments, jsonExperiment{
			Name:        name,
			WallMS:      float64(elapsed) / float64(time.Millisecond),
			NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
			AllocsPerOp: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(ops),
			Method:      sc.Method.String(),
		})
	}
	fmt.Println(bench.CacheStatsLine())
	if *jsonOut != "" {
		rep.CacheHits, rep.CacheMisses = bench.CacheStats()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "qtenon-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments)\n", *jsonOut, len(rep.Experiments))
	}
}
