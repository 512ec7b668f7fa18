package main

import "strings"

// cpuid executes the CPUID instruction for leaf op.
func cpuid(op uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string from CPUID leaves
// 0x80000002-0x80000004, or "unknown" when the CPU does not report one.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000); max < 0x80000004 {
		return "unknown"
	}
	var b []byte
	for op := uint32(0x80000002); op <= 0x80000004; op++ {
		a, bx, c, d := cpuid(op)
		for _, r := range [4]uint32{a, bx, c, d} {
			b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}
