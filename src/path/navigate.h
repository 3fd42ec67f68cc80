#ifndef GSV_PATH_NAVIGATE_H_
#define GSV_PATH_NAVIGATE_H_

#include <functional>
#include <vector>

#include "oem/store.h"
#include "path/path.h"
#include "path/path_expression.h"

namespace gsv {

// Visibility filter used to scope traversals (the WITHIN clause, §2): when
// set, objects for which it returns false are completely ignored — as if
// absent from the store. The traversal entry point is always visible.
using OidFilter = std::function<bool(const Oid&)>;

// Graph navigation primitives (paper §2 and §4.3). These are the only
// routines that traverse the base data; all their work is metered through
// StoreMetrics, which is what the cost experiments measure.

// N.p — the set of objects reachable from `start` following path `p`
// (paper §2). The empty path yields {start}. Works on arbitrary graphs;
// duplicates collapse because the result is a set.
OidSet EvalPath(const ObjectStore& store, const Oid& start, const Path& path,
                const OidFilter& filter = nullptr);

// N.e — the union of N.p over all instances p of expression `e` (paper §2).
// Cycle-safe: runs the expression NFA over the graph with a visited set on
// (object, NFA-state) pairs.
OidSet EvalExpression(const ObjectStore& store, const Oid& start,
                      const PathExpression& expr,
                      const OidFilter& filter = nullptr);

// ancestor(N, p) — every X with path(X, N) = p (paper §4.3). On a tree this
// has at most one element; on DAGs (or trees polluted by grouping objects)
// there may be several, which callers disambiguate (see Algorithm1's
// candidate verification). ancestor(N, ∅) = {N}.
std::vector<Oid> AncestorsByPath(const ObjectStore& store, const Oid& n,
                                 const Path& path);

// path(from, to) — label paths from `from` to `to`, found by climbing the
// inverse index from `to`. On a tree there is at most one (§4.3); a DAG
// base (§6) can have exponentially many, so the caller states both caps:
// at most `max_paths` results, and no climb deeper than `max_depth`
// (cycles in the base would otherwise loop). The listing stops silently at
// either cap; detecting truncation is the caller's job (size() ==
// max_paths means more may exist). To test one known path, use
// HasPathFromTo, which has no cap. When `filter` is set, intermediate
// objects failing it are invisible (the climb may still end at `from`,
// which — like a query entry point — is always visible).
std::vector<Path> PathsFromTo(const ObjectStore& store, const Oid& from,
                              const Oid& to, size_t max_paths,
                              size_t max_depth,
                              const OidFilter& filter = nullptr);

// True iff `to` is reachable from `from` via exactly the path `p`: climbs
// |p| levels with label filtering, exact on DAGs.
bool HasPathFromTo(const ObjectStore& store, const Oid& from, const Oid& to,
                   const Path& path);

}  // namespace gsv

#endif  // GSV_PATH_NAVIGATE_H_
