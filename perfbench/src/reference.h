// An independent reference for the six NEXMark queries: each query's final
// table computed directly from the feed with plain maps, sharing no window
// assignment, accumulator, join or expression code with the engine.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Final table of every query in NexmarkQueries(), keyed by its name, as a
/// sorted multiset of RowKey renderings.
///
/// Lateness follows the paper's Extension 2 with zero allowed lateness: a
/// row reaching a windowed aggregation whose window end is at or below the
/// watermark current at that point of the feed is dropped. A join row
/// reaches the aggregation when the later of its two inputs arrives. For
/// Q7, a late bid cannot match its window's maximum either, because that
/// window's result is final (and released) once the watermark passed it.
std::map<std::string, Multiset> NexmarkReference(
    const std::vector<FeedEvent>& feed);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
