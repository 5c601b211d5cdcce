// Copyright 2026 The LTAM Authors.
// Shared shutdown discipline for LTAM hosts (the shell, ltam_serve).
//
// A durable runtime's WAL tail replays from the last checkpoint, so a
// host that exits without checkpointing leaves recovery with a long
// replay. Every host therefore follows the same exit path: latch the
// Ctrl-C/SIGTERM request, fall out of the serving/input loop, and
// checkpoint the runtime before the process ends. EOF on stdin takes
// the same path as a signal — interactive and scripted shutdowns are
// not different cases.

#ifndef LTAM_SERVICE_SHUTDOWN_H_
#define LTAM_SERVICE_SHUTDOWN_H_

#include "runtime/access_runtime.h"
#include "util/status.h"

namespace ltam {

/// Installs SIGINT/SIGTERM handlers that latch ShutdownRequested().
/// Installed without SA_RESTART, so a signal interrupts blocking reads
/// (std::getline on stdin fails with EINTR) and loops notice promptly.
/// Idempotent.
void InstallShutdownSignalHandlers();

/// True once SIGINT or SIGTERM arrived. Async-signal-safe to set;
/// cheap to poll.
bool ShutdownRequested();

/// Testing/embedding hook: latches (or clears) the flag directly.
void RequestShutdown(bool requested = true);

/// The shared exit step: checkpoints a durable runtime so recovery
/// restarts from the exit state instead of replaying the whole WAL
/// tail. A no-op (returning OK) on in-memory runtimes.
Status CheckpointBeforeExit(AccessRuntime* runtime);

}  // namespace ltam

#endif  // LTAM_SERVICE_SHUTDOWN_H_
