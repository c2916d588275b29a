package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runRepeat is the spread tool: it runs the workload n times, each in a
// fresh process with its own seed, and prints for every metric the
// minimum, median and maximum and the run-to-run spread (distance
// between the first and third quartile as a share of the median, the
// quantity a metric's regression bound is compared against).
func runRepeat(n int, name string, seed int64, seconds float64, trace int, quick bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		args := []string{
			"-workload", name,
			"-seed", strconv.FormatInt(seed+int64(i), 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace),
			"-out", out,
		}
		if quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed+int64(i), err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run %d: last line is not a result: %w", i+1, err)
		}
		fmt.Printf("run %d/%d seed %d: correct=%v attempted=%d failed=%d\n", i+1, n, seed+int64(i), res.Correct, res.Attempted, res.Failed)
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %-6s %14s %14s %14s %9s\n", "metric", "unit", "min", "median", "max", "spread")
	for _, k := range names {
		s := sorted(values[k])
		fmt.Printf("%-40s %-6s %14.4f %14.4f %14.4f %8.2f%%\n", k, units[k], s[0], median(s), s[len(s)-1], 100*spread(s))
	}
	return nil
}
