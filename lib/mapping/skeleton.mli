(** Skeleton synthesis — the inverse of {!Public_gen}: recover a
    private BPEL process template from a deterministic public process
    (picks for received alternatives, switches for sent ones,
    non-terminating whiles for cycles, the idiom of the paper's
    Figs. 2/3). The synthesized process regenerates a public process
    with the same plain language; annotations are re-derived from the
    recovered structure. States mixing sends and receives, and
    automata whose cycles do not pass through their loop entry, are
    rejected with [Error]; such a cycle is found by the depth-first
    walk of its loop's graph the moment it closes, not by unwinding it
    to the depth limit.

    Shared continuations are emitted once. In the graph a loop (or the
    top level) walks, an edge back to the loop entry, an edge into
    another cyclic SCC (a nested while never falls through) and every
    final state lead to a virtual exit. The branches of a non-final
    choice are cut at the choice's immediate post-dominator J in that
    graph, and the walk goes on from J once, after the choice. These
    join points are computed once per loop, in time near-linear in its
    edges. When no continuation is shared by only some branches of a
    choice, or by a nested loop and its surroundings, every state and
    edge is emitted once and the output is linear in the automaton: a
    chain of k two-way diamonds (k + 1 states, 2k edges) gives 3k + 2
    activities, within 2·(states + edges). Such partial sharing is
    still copied into each branch, so the output is not linear in
    general.

    Synthesis ticks the ambient {!Chorev_guard.Budget} once per
    activity node it builds, so a budgeted caller stops it with
    [Budget.Expired], which is never turned into an [Error]. *)

type error = string

val synthesize :
  ?name:string ->
  party:string ->
  Chorev_afsa.Afsa.t ->
  (Chorev_bpel.Process.t, error) result
(** Skeleton synthesis: the inverse of {!Public_gen} — derive a private
    BPEL process template from a public process.

    The paper's propagation pipeline ends with a process engineer
    editing the partner's private process (Sec. 5.2 ad 4); its
    companion work [16] composes new collaborations from public
    processes. Both need a conforming private-process *template* for a
    given public behaviour: this module produces one. Given a
    deterministic aFSA and the owning party, it recovers block
    structure:

    - a state whose outgoing labels are all *received* by the owner
      becomes a [pick];
    - all *sent* becomes a [switch] of [invoke]s;
    - single transitions chain into [sequence]s;
    - cycles become non-terminating [while] loops whose exiting
      branches end in [terminate] (exactly the idiom of the paper's
      Figs. 2 and 3);
    - a final state with continuations becomes a stop-or-continue
      [switch];
    - a choice whose branches meet again is followed, in the same
      sequence, by the activities from the meeting state on.

    The synthesized process regenerates a public process with the same
    plain language as the input ({!Public_gen} round-trip, tested);
    mandatory annotations are re-derived from the recovered structure
    and may strengthen ones absent in a hand-built input.

    @raise Chorev_guard.Budget.Expired when the ambient budget runs out
    (one unit per activity of the output). *)
