// Package sim implements a process-oriented discrete-event simulation
// kernel used to model the tertiary-storage device complex of the paper.
//
// A Kernel owns a virtual clock and a set of Procs. Each Proc is a
// goroutine, but the kernel runs exactly one Proc at a time and hands
// control between them through channels, so a simulation is fully
// deterministic: device models advance the virtual clock, and
// overlapping I/O on independent devices overlaps in virtual time
// without any wall-clock sleeping.
//
// Procs block on three families of primitives:
//
//   - Proc.Hold advances the virtual clock (models a device transfer or
//     any other latency),
//   - Resource provides FIFO mutual exclusion with capacity (models a
//     device arm or a bus),
//   - Container provides a blocking counting store (models memory pools
//     and shared buffer space), and Queue[T] a bounded FIFO channel in
//     virtual time (models producer/consumer pipelines),
//   - Proc.StartIO / Proc.Await (async.go) let a proc hand a real OS
//     operation to a worker goroutine and yield the control token
//     until the worker posts its completion — the file backend's
//     bridge between wall-clock transfers and the virtual clock,
//   - Proc.RunTransfers (task.go) runs fixed acquire-hold-release
//     device transfers as pooled stackless tasks, stepped by the
//     kernel with no goroutine, yet scheduled exactly as helper
//     procs would be.
//
// The kernel detects deadlock: if live processes remain but no process
// is runnable and no event is pending, Run returns an error naming the
// blocked processes.
package sim
