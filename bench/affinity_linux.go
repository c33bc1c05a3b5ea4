//go:build linux

package main

import (
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask, 1024 CPUs wide.
type cpuSet [16]uint64

// threadCPUs returns the CPUs the calling thread may run on.
func threadCPUs() (cpuSet, bool) {
	var s cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	return s, errno == 0
}

// confine restricts thread tid (0: the calling thread), and every thread
// and process it starts from now on, to the CPUs in s.
func confine(tid int, s cpuSet) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	return errno == 0
}

// confineProcess restricts every thread of this process to the CPUs in s.
// A thread started meanwhile has the set of the thread that started it, so
// a second pass catches what the first missed.
func confineProcess(s cpuSet) bool {
	ok := false
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return false
		}
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil && confine(tid, s) {
				ok = true // a miss is a thread that has exited
			}
		}
	}
	return ok
}

// list returns the CPUs in s in ascending order.
func (s cpuSet) list() []int {
	var cpus []int
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			cpus = append(cpus, 64*w+bits.TrailingZeros64(word))
		}
	}
	return cpus
}

// only is the set that holds cpu alone.
func only(cpu int) cpuSet {
	var s cpuSet
	s[cpu/64] = 1 << (cpu % 64)
	return s
}
