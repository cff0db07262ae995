// Incremental re-solve for dynamic graphs (DESIGN.md §16).
//
// A solve on epoch e leaves behind a WarmState: the selected group, the
// final greedy round's per-candidate gains/keys, and that round's
// forest arena. GraphSession::Mutate folds each applied delta into the
// state (AdvanceWarmState): every retained forest is classified as
// *clean* — none of its loop-erased walks crossed a changed edge, so it
// remains a valid sample of the post-delta forest measure conditioned
// on avoiding the delta edges — or *dirty* (resampled from an
// independent stream on the new graph). Edge additions break the
// proposal support entirely (no retained forest can contain the new
// edge), so they additionally force an importance-correction resample
// share sized by the same degree-ratio bound the Bernstein machinery
// uses for z floors. A warm solve (ForestSolveWithWarm) then re-scores
// only the incumbent group plus a small contender pool on the
// partially-replayed forest stream and repairs the selection by
// swap-based local search, instead of rebuilding greedy rounds 1..k.
// Cold fallback triggers (delta too large, disconnection, parameter
// drift, k change) keep correctness independent of locality.
#ifndef CFCM_CFCM_INCREMENTAL_H_
#define CFCM_CFCM_INCREMENTAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cfcm/lazy_greedy.h"
#include "cfcm/options.h"
#include "common/status.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "runtime/forest_arena.h"

namespace cfcm {

/// Warm-start policy of one solve job. kAuto uses a warm state when one
/// is available and usable; kOn additionally counts a cold fallback
/// when it is not; kOff never warm-starts (but still deposits a state
/// for successors).
enum class WarmMode { kOff, kAuto, kOn };

/// "off" / "auto" / "on".
const char* WarmModeName(WarmMode mode);

/// Inverse of WarmModeName; nullopt for unknown strings.
std::optional<WarmMode> ParseWarmMode(std::string_view name);

/// \brief One-shot exclusive lease on a retained forest arena.
///
/// The arena's slabs are mutated in place by whichever consumer wins
/// the claim (a warm solve overwriting dirty slots, or Mutate moving
/// the arena into the successor state), while WarmState objects are
/// immutable and shared across epochs/threads. Every transfer creates a
/// fresh lease; a lease that was claimed but never transferred simply
/// retires with its owner.
struct ArenaLease {
  ForestArena arena;
  std::atomic<bool> claimed{false};

  /// True exactly once; the caller then owns `arena` exclusively.
  bool TryClaim() {
    return !claimed.exchange(true, std::memory_order_acq_rel);
  }
};

/// \brief Everything a successor epoch needs to warm-start: the
/// previous selection and final-round candidate scores, the retained
/// forest arena with its per-forest clean/dirty classification, and a
/// running summary of the deltas applied since the state was built.
/// Immutable once published (the arena hides behind ArenaLease).
struct WarmState {
  // Solve parameters the state was produced under. A warm start is only
  // attempted for an identically-parameterized job (DecideWarm).
  double eps = 0.2;
  uint64_t seed = 1;

  std::vector<NodeId> selection;  ///< greedy order, size k
  std::vector<double> gains;      ///< final-round gain per node (size
                                  ///< source_n; 0 at selected nodes)
  std::vector<double> keys;       ///< width-inflated heap keys, ditto
  double last_gain = 0.0;         ///< the final pick's winning gain
  uint64_t final_seed = 0;        ///< stream seed of greedy round k
  CfcmResult base_result;         ///< the producing solve's result
                                  ///< (identity-delta fast path)

  /// Final-round arena (roots = selection[0..k-2]); null when the
  /// producing round kept none or a later epoch dropped it.
  std::shared_ptr<ArenaLease> lease;
  /// Per-forest flags aligned with the arena's committed prefix:
  /// nonzero = clean (replayable verbatim on the current graph).
  std::vector<char> clean;

  /// One accumulated delta edge: endpoints in the source graph's id
  /// space and the absolute conductance change (removal: the removed
  /// weight; addition: the added weight).
  struct TouchedEdge {
    NodeId u = -1;
    NodeId v = -1;
    double abs_dw = 0.0;
  };
  std::vector<TouchedEdge> touched;  ///< changed edges since the solve
  bool structural = false;   ///< any removal/addition since the solve
  bool overflow = false;     ///< touched-list cap hit; summary unusable
  /// Importance-correction resample share for edge additions: the
  /// probability bound that a post-delta forest uses any added edge,
  /// sum over additions of w'/(d_w(u)+w') + w'/(d_w(v)+w'). The warm
  /// solve force-resamples ceil(share * committed) clean slots.
  double addition_share = 0.0;
  NodeId source_n = 0;       ///< node count of the solved graph
  uint64_t epoch_salt = 0;   ///< advances since capture; salts the
                             ///< resample RNG stream
};

/// Touched edges retained before AdvanceWarmState declares overflow
/// (beyond this the delta is far past every warm threshold anyway).
inline constexpr std::size_t kWarmMaxTouchedEdges = 4096;

/// New nodes a warm repair will absorb before falling back cold (each
/// one joins the contender pool unconditionally).
inline constexpr NodeId kWarmMaxNewNodes = 64;

/// \brief Packages a finished cold solve into a WarmState.
///
/// `graph` is the solved graph, `result` the solve's output and
/// `capture` the lazy loop's warm material (moved from). The arena is
/// adopted only when it actually holds the final round's forests.
std::shared_ptr<const WarmState> BuildWarmState(const Graph& graph,
                                                const CfcmOptions& options,
                                                const CfcmResult& result,
                                                WarmCapture&& capture);

/// \brief Folds one applied delta into `state`, yielding the successor
/// epoch's state.
///
/// `pre_graph` is the graph the delta applies to (BEFORE application,
/// for old conductance lookups). No-op reweights are skipped entirely,
/// so an identity delta advances to an identical state and the warm
/// fast path returns the stored result verbatim. Classification runs
/// only if the arena lease can be claimed here; otherwise (an in-flight
/// warm solve holds it) the successor simply carries no arena.
/// Thread-safe against concurrent readers of `state`.
std::shared_ptr<const WarmState> AdvanceWarmState(const WarmState& state,
                                                  const Graph& pre_graph,
                                                  const GraphDelta& delta);

/// Why a warm start was or was not attempted.
struct WarmDecision {
  bool use_warm = false;
  const char* reason = "";  ///< static string, e.g. "delta_too_large"
};

/// The fallback policy of DESIGN.md §16, exported for tests. `state`
/// may be null. Checks parameter/k drift, disconnection, the touched
/// fraction against kWarmMaxDeltaFraction (0.25), the addition
/// share, node growth and summary overflow.
WarmDecision DecideWarm(const Graph& graph, const WarmState* state, int k,
                        const CfcmOptions& options);

/// \brief Forest solve with the warm-start pipeline.
///
/// mode kOff (or exhaustive selection) runs the plain cold solve;
/// kAuto/kOn run the warm repair when DecideWarm accepts and fall back
/// cold otherwise (result.cold_fallback reports it). Every lazy solve,
/// warm or cold, fills `deposit` (may be null) with the successor
/// WarmState for GraphSession to retain. Warm results depend on the
/// session's mutation history and must never enter the result cache;
/// result.warm_started marks them.
StatusOr<CfcmResult> ForestSolveWithWarm(
    const Graph& graph, int k, const CfcmOptions& options, WarmMode mode,
    const std::shared_ptr<const WarmState>& warm,
    std::shared_ptr<const WarmState>* deposit);

/// Records the engine.incremental.{forests_reused,forests_resampled,
/// warm_starts,cold_fallbacks,swap_moves} process counters.
void RecordIncrementalCounters(std::int64_t forests_reused,
                               std::int64_t forests_resampled,
                               std::int64_t warm_starts,
                               std::int64_t cold_fallbacks,
                               std::int64_t swap_moves);

}  // namespace cfcm

#endif  // CFCM_CFCM_INCREMENTAL_H_
