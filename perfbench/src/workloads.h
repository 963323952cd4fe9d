// The benchmark's workloads. Each one runs against the layers' public APIs
// with its parameters pinned as constants in its own source file,
// checks every output it gets, and fills a Results with every end-to-end
// metric (untraced run) or every per-layer metric it can measure (traced
// run: `spans` is non-null, backends get the obs sink via `?metrics` and
// are wrapped in a TracingBackend).
#pragma once

#include <cstdint>
#include <string>

#include "spans.h"
#include "util.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  SpanBuffer* spans = nullptr;  ///< non-null = traced run
};

/// svc_rt: open-loop Poisson over loopback TCP to an in-process
/// svc::Server.
Results run_svc(const RunOptions& options);
/// rt_inproc: closed-loop issuer threads calling an rt backend directly.
Results run_rt_inproc(const RunOptions& options);
/// mp_inproc: closed-loop issuer threads keeping bursts in flight on an mp
/// backend directly.
Results run_mp_inproc(const RunOptions& options);
/// paper_psim: the Figure 5/6 grids and the §4 search, single-threaded.
Results run_paper_psim(const RunOptions& options);

}  // namespace perfbench
