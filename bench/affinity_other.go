//go:build !linux

package main

// Without an affinity call nothing can be confined to one CPU: the launcher
// sets GOMAXPROCS=1 instead, and set-up runs wherever the scheduler puts it.

type cpuSet struct{}

func threadCPUs() (cpuSet, bool)     { return cpuSet{}, false }
func confine(tid int, s cpuSet) bool { return false }
func confineProcess(s cpuSet) bool   { return false }
func (s cpuSet) list() []int         { return nil }
func only(cpu int) cpuSet            { return cpuSet{} }
