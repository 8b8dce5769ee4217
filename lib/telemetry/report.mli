(** Stall attribution: an exact decomposition of wasted issue slots.

    The simulator core bumps these counters once per cycle when
    profiling is attached. The invariant — property-tested — is

    {v slots.offered - slots.filled = sum of all waste.* counters v}

    so the rendered table always sums to the total wasted slots. *)

type handles = {
  cycles : Counters.counter;
  slots_offered : Counters.counter;
  slots_filled : Counters.counter;
  v_fetch : Counters.counter;  (** Vertical: all threads in I$ fetch stall. *)
  v_mem : Counters.counter;  (** Vertical: D$ miss stalls dominate. *)
  v_branch : Counters.counter;  (** Vertical: branch-mispredict stalls. *)
  v_switch : Counters.counter;  (** Vertical: BMT context-switch bubble. *)
  v_idle : Counters.counter;  (** Vertical: no resident thread. *)
  h_conflict : Counters.counter;  (** Horizontal: cluster/slot conflicts. *)
  h_capacity : Counters.counter;  (** Horizontal: issue-width capacity. *)
  h_priority : Counters.counter;  (** Horizontal: policy denied a ready thread. *)
  h_ilp : Counters.counter;  (** Horizontal: not enough candidate ops. *)
  switch_bubbles : Counters.counter;
      (** Cycles whose whole width was booked to the switch-bubble
          category ([waste.vertical.bmt_switch]): BMT context-switch
          bubbles and adaptive merge-network reconfiguration stalls.
          Lets the conservation law "v_switch slots = width x bubble
          cycles" be checked after the fact. *)
}

val attach : Counters.t -> handles
(** Resolve (creating as needed) every attribution counter in the
    registry. *)

val categories : (string * string) list
(** Waste counter names with display labels, in render order. *)

val n_cycles : string
(** Counter name for simulated cycles ([core.cycles]). *)

val n_v_switch : string
(** Counter name of the switch-bubble waste category
    ([waste.vertical.bmt_switch]): whole-width cycles lost to BMT
    context-switch bubbles and merge-network reconfigurations. *)

val n_switch_bubbles : string
(** Counter name behind [handles.switch_bubbles]
    ([core.switch_bubble_cycles]). *)

val n_scheme_switches : string
(** Merge-network reconfigurations performed ([sim.scheme_switches]);
    flushed by the core at metrics time. *)

val n_switch_stall : string
(** Total issue-stall cycles scheduled by reconfigurations and BMT
    context switches ([sim.switch_stall_cycles]); flushed by the core
    at metrics time. Attribution books a switch bubble only when a
    candidate was actually denied, so
    [core.switch_bubble_cycles <= sim.switch_stall_cycles]. *)

val n_controller_prefix : string
(** Prefix of the adaptive controller's per-scheme decision counters
    ([controller.decisions.<name>]): how many boundary decisions picked
    each candidate scheme. Booked by the multitasking harness when both
    a controller and a counter registry are attached. *)

val n_controller_decisions : string -> string
(** [n_controller_decisions name = "controller.decisions." ^ name]. *)

val n_controller_switches : string
(** Owner changes the controller decided ([controller.switches]) —
    an upper bound on [sim.scheme_switches] (a decided switch may find
    the core already running the target scheme). *)

val n_sweep_retries : string
(** Counter name for sweep cell attempts that failed and were retried
    ([sweep.retries]). Bumped by [Vliw_experiments.Sweep]; harness
    fault-tolerance accounting, outside the waste sum. *)

val n_sweep_degraded : string
(** Cells that exhausted their retry budget and were recorded as
    degraded ([sweep.degraded]). *)

val n_sweep_timeouts : string
(** Cell attempts whose wall-clock exceeded the per-cell timeout
    ([sweep.timeouts]); each timed-out attempt also counts as a retry
    or a degradation. *)

val n_sweep_resumed : string
(** Cells restored from a checkpoint journal instead of being simulated
    ([sweep.resumed_cells]). *)

val wasted : Counters.snapshot -> int
(** [slots.offered - slots.filled]. *)

val attributed : Counters.snapshot -> int
(** Sum of every waste category (equals {!wasted} by the invariant). *)

val render : Counters.snapshot -> string
(** Human-readable attribution table. *)
