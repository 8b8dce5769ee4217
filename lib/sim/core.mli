(** The multithreaded clustered-VLIW core: the per-cycle pipeline loop.

    Each cycle runs one step, whatever the policy and whatever is
    observing it:
    - {b fetch}: every resident, non-stalled thread offers its next VLIW
      instruction (fetching through the ICache the first time); the
      offers form the cycle's live-thread bitmask.
    - {b select}: under {!Policy.Merged} the scheme's batched evaluator
      ({!Vliw_merge.Engine.Batch}) decides which threads merge and
      issue; {!Policy.Imt} and {!Policy.Bmt} issue one live thread.
    - {b retire}: issued threads retire their instruction in ascending
      thread order — data accesses go through the DCache (a miss blocks
      the thread for the miss penalty), a taken block-ending branch
      redirects the thread and pays the squash penalty.
    - {b observe}: telemetry events, stall attribution and the reject
      tallies are read off the cycle's issued and rejected bitmasks.

    Thread-to-port priority rotates round-robin when configured. With
    telemetry off and no counters attached, a warm step allocates
    nothing. *)

type t

val create :
  ?telemetry:Vliw_telemetry.Sink.t ->
  ?counters:Vliw_telemetry.Counters.t ->
  Config.t ->
  Vliw_mem.Mem_system.t ->
  t
(** [telemetry] (default {!Vliw_telemetry.Sink.null}) receives typed
    pipeline events. When [counters] is given, a counting sink and an
    exact-sum stall-attribution pass ({!Vliw_telemetry.Report}) are
    attached on top of it. Telemetry is observation-only: simulation
    results are bit-identical with any sink. *)

val set_sink : t -> Vliw_telemetry.Sink.t -> unit
(** Replace the event sink installed at creation (including the
    counting sink composed in by [create ~counters]); the attribution
    pass, if any, is unaffected. Lets a caller warm up silently and
    record afterwards. *)

val install : t -> Thread_state.t option array -> unit
(** Set the threads resident on the hardware contexts; the array length
    must equal {!Config.contexts}. *)

val step : t -> unit
(** Advance one cycle. Observers ({!create}'s [telemetry] and
    [counters]) see exactly the decisions an unobserved step makes. *)

type cycle_record = {
  cycle : int;
  candidates : (int * Vliw_merge.Packet.t) list;
      (** Threads that offered an instruction this cycle. *)
  issued : int list;
  packet : Vliw_merge.Packet.t option;  (** The merged execution packet. *)
}

val step_record : t -> cycle_record
(** {!step} plus packet construction: wraps each candidate as a
    {!Vliw_merge.Packet.t} and rebuilds the merged packet (the union, in
    the evaluator's union order, of the issued candidates). The
    decision, retirement and observation are {!step}'s own. Used by the
    trace inspector. *)

val cycle : t -> int

val ops_issued : t -> int

val instrs_issued : t -> int

val issue_hist : t -> int array

val vertical_waste_cycles : t -> int

val network : t -> Vliw_merge.Merge_network.t option
(** The swappable merge network; [Some] iff the policy is
    {!Policy.Merged}. *)

val scheme_name : t -> string option
(** Display name of the currently installed scheme ([None] for
    IMT/BMT). *)

val switch_scheme : t -> ?name:string -> penalty:int -> Vliw_merge.Scheme.t -> unit
(** Reconfigure the merge network to a different scheme, charging
    [penalty] cycles of issue stall (the same bubble mechanism as BMT
    context switches; see {!Vliw_cost.Scheme_cost.switch_penalty} for
    the pricing). Designed to be called at a timeslice boundary: no
    state is in flight across cycles, candidate packets are simply
    re-offered once the bubble drains, and priority rotation re-seeds
    deterministically from the cycle counter. A structurally equal
    scheme is a no-op (no penalty, no switch counted).
    @raise Invalid_argument if the policy is not {!Policy.Merged}, the
    scheme's thread count differs, or [penalty < 0]. *)

val scheme_switches : t -> int
(** Effective (non-no-op) {!switch_scheme} calls so far. *)

val switch_stall_cycles : t -> int
(** Cycles spent stalled inside switch bubbles so far (scheme-switch
    penalties, and BMT context-switch bubbles under {!Policy.Bmt}). *)

val reject_counts : t -> int * int
(** Cumulative merge rejects by cause, [(conflict, capacity)]. Counted
    unconditionally (no telemetry needed): the adaptive controller's
    cheapest observation signal. *)

val metrics :
  t -> all_threads:Thread_state.t array -> Metrics.t
(** Snapshot including memory-system statistics and per-thread
    counters. Also flushes the reconfiguration counters
    ({!Vliw_telemetry.Report.n_scheme_switches},
    {!Vliw_telemetry.Report.n_switch_stall}) into the [counters]
    registry given at {!create} (idempotently). *)
