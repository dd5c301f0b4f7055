package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// A CPU of a virtual machine that halts is handed back to the host, and
// a thread woken on it runs slowly for a while: on a 2-vCPU guest a
// fixed loop ran up to 1.8x slower when each repetition followed a 0.2 s
// sleep than when the repetitions ran back to back. A workload that
// blocks and wakes often, the closed serve loop and the runner's workers
// above all, then measures how long the host left each CPU idle rather
// than the program, and that drifts with the host's other tenants.
//
// holdCPUs keeps every CPU out of the idle state while a run measures,
// the in-guest equivalent of booting with idle=poll: one child process
// per CPU, pinned to it, spins at SCHED_IDLE. The kernel runs such a
// task only when nothing else on its CPU is runnable and preempts it as
// soon as anything wakes there, so it takes next to no time from the
// program. The children are this binary started with holdEnv set.
const holdEnv = "PERFBENCH_HOLD_CPU"

// schedIdle is SCHED_IDLE from <linux/sched.h>.
const schedIdle = 5

// cpuHold is the set of spinning children.
type cpuHold struct{ kids []*exec.Cmd }

// holdCPUs starts one spinning child per CPU this process may use.
func holdCPUs() (*cpuHold, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &cpuHold{}
	for k := 0; k < runtime.NumCPU(); k++ {
		c := exec.Command(self)
		c.Env = append(os.Environ(), fmt.Sprintf("%s=%d", holdEnv, k))
		c.Stderr = os.Stderr
		// The children die with this process however it ends; holdCPU
		// also exits once its parent is gone.
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			h.release()
			return nil, err
		}
		h.kids = append(h.kids, c)
	}
	return h, nil
}

// release kills the children and waits until each has ended.
func (h *cpuHold) release() {
	for _, c := range h.kids {
		c.Process.Kill()
		c.Wait() // the error only reports the kill
	}
	h.kids = nil
}

// cpuMask is a kernel cpu_set_t.
type cpuMask [1024 / 64]uint64

func affinity(op uintptr, m *cpuMask) syscall.Errno {
	_, _, e := syscall.RawSyscall(op, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return e
}

// holdCPU is the child: it pins its thread to the k-th CPU it may run
// on, lowers the thread to SCHED_IDLE and spins until its parent is
// gone or it is killed.
func holdCPU(arg string) int {
	k, err := strconv.Atoi(arg)
	if err != nil || k < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad %s=%q\n", holdEnv, arg)
		return 2
	}
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	var allowed, mine cpuMask
	if e := affinity(syscall.SYS_SCHED_GETAFFINITY, &allowed); e != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: reading the CPU mask: %v\n", e)
		return 1
	}
	for cpu := 0; cpu < 1024; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			if k == 0 {
				mine[cpu/64] = 1 << (cpu % 64)
				break
			}
			k--
		}
	}
	if e := affinity(syscall.SYS_SCHED_SETAFFINITY, &mine); e != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: pinning to CPU %s: %v\n", arg, e)
		return 1
	}
	var prio int32 // sched_param.sched_priority, 0 for SCHED_IDLE
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); e != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: SCHED_IDLE: %v\n", e)
		return 1
	}
	parent := os.Getppid()
	for {
		deadline := time.Now().Add(50 * time.Millisecond)
		for time.Now().Before(deadline) {
		}
		if os.Getppid() != parent {
			return 0
		}
	}
}
