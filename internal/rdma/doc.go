// Package rdma simulates a rack-scale RDMA fabric (Infiniband in the paper's
// prototype: ConnectX-3 adapters behind an SB7800 switch).
//
// The simulation is in-process and deterministic. It models the pieces the
// memory-disaggregation layer depends on:
//
//   - Device: an RDMA-capable NIC bound to a host, with registered memory
//     regions protected by local/remote keys;
//   - MemoryRegion: a registered buffer that one-sided verbs may target. Its
//     bytes are allocate-on-write (internal/sparsemem): registering costs no
//     host memory, and each 64 KiB chunk is allocated on its first write, so
//     a zombie lending gigabytes costs heap only for the bytes written;
//   - QueuePair: a reliable-connected queue pair between two devices with send
//     and receive queues and an associated CompletionQueue;
//   - one-sided READ and WRITE verbs that access remote memory without any
//     involvement of the remote CPU — the property that makes zombie servers
//     possible — plus two-sided SEND/RECV used by the RPC layer;
//   - Fabric: the switch connecting devices, carrying a latency/bandwidth cost
//     model whose parameters follow FDR Infiniband magnitudes.
//
// Completions queue on a CompletionQueue until polled. Poll fills the
// caller's array, like ibv_poll_cq, and never allocates. Every verb also
// returns its outcome directly. An initiator that takes outcomes that way
// must still drain its queue after each verb, or the queue grows by one
// completion per verb.
//
// The remote side of a one-sided verb only requires its Device to be
// "serving" (powered memory path), which the ACPI layer maps from the Sz
// state. A remote host whose device is not serving (e.g. S3) fails the verb.
package rdma
