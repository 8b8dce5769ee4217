(** The merge engine: per-cycle thread selection and packet construction.

    Each cycle, every non-stalled thread offers its next VLIW instruction;
    the engine evaluates the scheme tree bottom-up and returns the merged
    execution packet together with the set of threads it issues.

    Semantics (DESIGN.md §4): a serial merge node folds over its inputs,
    skipping any input whose packet conflicts with the accumulated packet
    — exactly the cascading logic of the serial implementations in the
    paper's reference [7]. A parallel CSMT node selects the same set as
    the equivalent serial cascade (the paper states the implementations
    are functionally equivalent; they differ only in hardware cost).
    Stalled threads (input [None]) are transparent to the fold.

    Fairness: [rotation] remaps scheme input port [i] to hardware thread
    [(i + rotation) mod n]; the simulator advances it round-robin so no
    thread permanently owns the highest-priority port. *)

type reject = { thread : int; cause : Conflict.failure }
(** A hardware thread that offered a packet and was denied issue at some
    merge block, with the resource reason. Threads the policy simply
    never selects (IMT/BMT) are not engine rejects — the simulator
    attributes those to priority. *)

type selection = {
  packet : Packet.t option;  (** Merged packet, [None] when nothing issues. *)
  issued : int list;  (** Hardware thread ids issued this cycle, ascending. *)
  rejected : reject list;
      (** Candidates denied by a conflict/capacity check, thread-sorted.
          Each thread appears at most once: a packet is dropped at the
          first block that refuses it. *)
}

val select :
  Vliw_isa.Machine.t ->
  ?routing:Conflict.routing_mode ->
  Scheme.t ->
  ?rotation:int ->
  Packet.t option array ->
  selection
(** [select m scheme ~rotation avail] with [avail] indexed by hardware
    thread id; [avail] must have at least {!Scheme.n_threads}[ scheme]
    entries. [routing] (default [Flexible]) selects the SMT conflict
    check variant. *)

val select_reference :
  Vliw_isa.Machine.t ->
  ?routing:Conflict.routing_mode ->
  Scheme.t ->
  ?rotation:int ->
  Packet.t option array ->
  selection
(** Same contract as {!select}, evaluated with the pre-signature
    list-walking conflict checks ({!Conflict.Reference}). The oracle the
    fast path is property-tested against; not for the hot path. *)

val select_instrs :
  Vliw_isa.Machine.t ->
  ?routing:Conflict.routing_mode ->
  Scheme.t ->
  ?rotation:int ->
  Vliw_isa.Instr.t option array ->
  selection
(** Convenience wrapper turning instructions into packets first. *)

(** Batched bit-parallel scheme evaluation.

    A compiled evaluator for one (machine, routing, scheme): candidates
    are packed into flat int lanes (one word-level signature lane per
    cluster) and the scheme tree is evaluated with word-parallel bitwise
    ops over them — no per-thread closures, no per-node option
    allocation. {!Batch.eval} allocates nothing, so the simulator's
    steady-state loop runs it every cycle and stays off the minor heap.
    Decisions agree bit-for-bit with {!select} (property-tested against
    {!select_reference}). Single-domain: create one per core. *)
module Batch : sig
  type t

  val create :
    Vliw_isa.Machine.t -> routing:Conflict.routing_mode -> Scheme.t -> t

  val scheme : t -> Scheme.t

  val clear : t -> unit
  (** Mark every port empty. *)

  val clear_port : t -> int -> unit
  (** Mark one port empty (stalled or vacant context). *)

  val set_port : t -> int -> Vliw_isa.Instr.signature -> unit
  (** Load port [i] with hardware thread [i]'s candidate, straight from
      its interned signature — the simulator's positional fast path; no
      packet is built. *)

  val set_port_packet : t -> int -> Packet.t -> unit
  (** Load port [i] from a packet (which may carry any thread set) —
      the general/oracle entry point. *)

  val eval : t -> rotation:int -> unit
  (** Evaluate the scheme over the loaded ports. Allocation-free; the
      outcome is read back through the accessors below and stays valid
      until the next [eval]. *)

  val issued : t -> int
  (** Thread bitmask issued by the last {!eval}. *)

  val rejected_conflict : t -> int
  (** Threads denied by a cluster conflict, as a bitmask. *)

  val rejected_capacity : t -> int
  (** Threads denied by slot capacity, as a bitmask. *)

  val packet : t -> (int -> Packet.t) -> Packet.t option
  (** The merged packet of the last {!eval}, [None] when nothing
      issued: [packet t port] folds {!Packet.union} over [port hw] for
      the accepted ports [hw], in union order. Allocates; for callers
      that display the packet ({!select_batched}, the simulator's
      recorded step), not the per-cycle decision. *)
end

val select_batched :
  Vliw_isa.Machine.t ->
  ?routing:Conflict.routing_mode ->
  Scheme.t ->
  ?rotation:int ->
  Packet.t option array ->
  selection
(** Same contract as {!select}, evaluated through a throwaway {!Batch}
    (ports loaded with {!Batch.set_port_packet}, packet rebuilt by
    folding {!Packet.union} over the recorded union order). The oracle
    surface of the batched kernel; the simulator keeps one persistent
    {!Batch} for its installed scheme instead (see {!Merge_network}). *)

(** Bounded memo table over selection outcomes.

    A scheme's selection is a pure function of (rotation, per-port
    signature); running mixes repeat a small set of instruction shapes,
    so the same key recurs across cycles. On a hit the recorded outcome
    is replayed — the packet rebuilt bit-identically by folding
    {!Packet.union} over the live ports in the recorded union order —
    without evaluating the scheme tree. The table is flushed whole when
    it reaches its capacity bound. The simulator decides through
    {!Batch}; this table survives only as a measured alternative. *)
module Memo : sig
  type t

  type stats = {
    hits : int;
    misses : int;
    flushes : int;
        (** Whole-table flushes on reaching capacity. Hit/miss tallies
            are cumulative across flushes: a flush drops the cached
            entries, never the counters. *)
    size : int;  (** Entries currently cached. *)
  }

  val create :
    ?cap:int ->
    Vliw_isa.Machine.t ->
    routing:Conflict.routing_mode ->
    Scheme.t ->
    t
  (** One table per (machine, routing, scheme) — create one per core so
      sweep worker domains never share it. [cap] (default [65536]) bounds
      the entry count. *)

  val select : t -> ?rotation:int -> Packet.t option array -> selection
  (** Memoizing {!Engine.select}. Port [i] must be [None] or a packet of
      hardware thread [i] exactly (the simulator's candidate packets),
      since replayed thread ids are positional. *)

  val select_issue : t -> ?rotation:int -> Packet.t option array -> selection
  (** Like {!select} but the returned [packet] is [None] whenever more
      than one candidate is live: the scheme tree is evaluated with
      signature-only unions and hits skip packet reconstruction. For
      callers that only need [issued]/[rejected]. [issued] and
      [rejected] are identical to {!select}'s. *)

  val stats : t -> stats
end
