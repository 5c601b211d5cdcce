// Copyright 2026 The LTAM Authors.

#include "util/thread_name.h"

#include <pthread.h>

namespace ltam {

void NameThread(std::thread* thread, const std::string& name) {
  // pthread_setname_np refuses (ERANGE) rather than truncates a name
  // over 15 bytes plus the terminator. A thread that already exited
  // keeps no name to set; the error is moot then.
  ::pthread_setname_np(thread->native_handle(), name.substr(0, 15).c_str());
}

}  // namespace ltam
