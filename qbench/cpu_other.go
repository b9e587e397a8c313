//go:build !amd64

package main

import "runtime"

// cpuModel has no brand-string source off amd64; the architecture still
// distinguishes hosts.
func cpuModel() string { return "unknown " + runtime.GOARCH }
