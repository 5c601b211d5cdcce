// Copyright 2026 The LTAM Authors.
// Names for the runtime's long-lived threads.
//
// Every thread the library starts is named by its creator as soon as it
// exists, so a per-thread profile (`/proc/<pid>/task/*/comm`, `top -H`,
// a debugger's thread list) tells the I/O loop from a shard worker
// without guessing from tid order, and the name is in place before the
// creating call returns. The names in use:
//
//   ltam-io           the server's epoll loop and its ingest rounds
//                     (also every slice of a small batch, shard 0's of a
//                     large one, and the log's write and fsync)
//   ltam-read         the server's query/stats workers
//   ltam-shard-<k>    the sharded engine's worker for shard k >= 1
//   ltam-shipper      a primary's log shipper, one per replica
//   ltam-replica      a replica's link to its primary (and its log's
//                     per-chunk write and fsync)
//
// A host's main thread keeps its process name.

#ifndef LTAM_UTIL_THREAD_NAME_H_
#define LTAM_UTIL_THREAD_NAME_H_

#include <string>
#include <thread>

namespace ltam {

/// Names `thread` (started, not yet joined). Linux keeps 15 bytes of a
/// thread name, so longer names are cut to their first 15.
void NameThread(std::thread* thread, const std::string& name);

}  // namespace ltam

#endif  // LTAM_UTIL_THREAD_NAME_H_
