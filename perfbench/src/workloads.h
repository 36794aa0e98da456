// Entry points of the workloads. Each prints its result block and returns
// the process exit code.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// serve_read and serve_write.
int RunServed(const Options& opts);

/// paper_embedded.
int RunEmbedded(const Options& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
