// Counts calls of the global operator new made while counting is enabled
// (the perfbench binary replaces operator new; see alloc_count.cpp).
#pragma once

#include <cstdint>

namespace perfbench {

void alloc_counter_enable(bool on);
void alloc_counter_reset();
std::uint64_t alloc_counter_value();

}  // namespace perfbench
