//go:build !amd64

package main

import "runtime"

// cpuModel names the architecture where no brand string is available
// without reading files outside the benchmark's checkout.
func cpuModel() string { return "unknown " + runtime.GOARCH }
