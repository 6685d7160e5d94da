// Counts operator-new calls per thread. The replacement operators live in
// their own translation unit so no caller ever sees them inlined.
#pragma once

#include <cstdint>

namespace perfbench {

/// operator-new calls made so far by the calling thread.
std::uint64_t thread_allocs();

}  // namespace perfbench
