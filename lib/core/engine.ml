type reject = { thread : int; cause : Conflict.failure }

type selection = {
  packet : Packet.t option;
  issued : int list;
  rejected : reject list;
}

(* Evaluates the scheme tree with pluggable union and conflict check.
   Each child subtree is evaluated and immediately merged into the
   accumulator (equivalent to evaluating all children first: sibling
   evaluations are independent); an accepted leaf appends its hardware
   port to [order], and a rejected subtree truncates back to the mark
   taken before it ran — its leaves are contiguous at the tail, since
   rejection happens right after the subtree finished. [order] thus ends
   as the in-order traversal of accepted leaves: the union order, which
   is what lets the memo table reconstruct a bit-identical packet on a
   hit. The fold passes options through physically and allocates only
   on union, so a cycle with one live candidate under a node costs
   nothing. *)
let rec eval ~union ~check ~rotation ~n ~rejects ~order ~len avail = function
  | Scheme.Thread i ->
    let hw = (i + rotation) mod n in
    (match avail.(hw) with
    | None -> None
    | Some _ as r ->
      order.(!len) <- hw;
      incr len;
      r)
  | Scheme.Merge { kind; impl = _; inputs } ->
    eval_children ~union ~check ~rotation ~n ~rejects ~order ~len avail kind
      None inputs

(* The fold over a merge block's children, as a top-level mutual
   recursion rather than a [List.fold_left] closure: dense cycles build
   one of these frames per merge node, so the closure allocation was
   per-cycle cost. *)
and eval_children ~union ~check ~rotation ~n ~rejects ~order ~len avail kind acc
    = function
  | [] -> acc
  | input :: rest ->
    let mark = !len in
    let acc =
      match
        eval ~union ~check ~rotation ~n ~rejects ~order ~len avail input
      with
      | None -> acc
      | Some (p : Packet.t) as r ->
        (match acc with
        | None -> r
        | Some accp ->
          (match check kind accp p with
          | None -> Some (union accp p)
          | Some cause ->
            (* The whole packet is denied: every thread it carries
               was refused issue at this merge block. *)
            len := mark;
            for thread = 0 to n - 1 do
              if p.threads land (1 lsl thread) <> 0 then
                rejects := { thread; cause } :: !rejects
            done;
            acc))
    in
    eval_children ~union ~check ~rotation ~n ~rejects ~order ~len avail kind acc
      rest

(* Returns the selection plus the union-order buffer and its length;
   only the memo table's miss path materializes the order as a list. *)
let select_core ?(union = Packet.union) ~check scheme ~rotation avail =
  let n = Scheme.n_threads scheme in
  assert (Array.length avail >= n);
  let rotation = ((rotation mod n) + n) mod n in
  let rejects = ref [] in
  let order = Array.make n 0 in
  let len = ref 0 in
  match eval ~union ~check ~rotation ~n ~rejects ~order ~len avail scheme with
  | None -> ({ packet = None; issued = []; rejected = [] }, order, 0)
  | Some p ->
    ( {
        packet = Some p;
        issued = Packet.thread_list p;
        rejected = List.sort (fun a b -> compare a.thread b.thread) !rejects;
      },
      order,
      !len )

let sel_of (sel, _, _) = sel

let select m ?(routing = Conflict.Flexible) scheme ?(rotation = 0) avail =
  sel_of (select_core ~check:(Conflict.check m ~routing) scheme ~rotation avail)

let select_reference m ?(routing = Conflict.Flexible) scheme ?(rotation = 0)
    avail =
  sel_of
    (select_core ~check:(Conflict.Reference.check m ~routing) scheme ~rotation
       avail)

let select_instrs m ?routing scheme ?rotation instrs =
  let avail =
    Array.mapi
      (fun thread instr ->
        Option.map (fun i -> Packet.of_instr m ~thread i) instr)
      instrs
  in
  select m ?routing scheme ?rotation avail

(* --- decision cache ---------------------------------------------------

   A scheme's selection is a pure function of (rotation, per-port
   signature): the conflict checks read nothing but the packets' masks,
   packed counts, and pinned-slot masks — exactly what a signature's
   intern id (Instr.signature, sg_id) identifies, so the key is one word
   per port. On a hit the full selection is replayed without evaluating
   the scheme tree, and the packet is rebuilt bit-identically by folding
   Packet.union over the live ports in the recorded union order. The key
   is staged in a per-table scratch buffer and only copied to the heap
   when a miss inserts it.

   Three regimes keep the table worth its cost:

   - 0 or 1 live ports (stalls make this the most common cycle shape):
     the selection has a closed form — nothing merges, nothing can be
     rejected — so it is answered inline without touching the table.
   - Pure-CSMT schemes read nothing but cluster-occupancy masks, so
     ports are keyed by mask: at most 2^clusters values per port, a key
     space small enough to cache every cycle density.
   - Schemes with SMT blocks discriminate by the full signature id.
     Dense cycles (3+ live ports) then key on a near-unique tuple —
     instruction shapes compound across independent threads — so only
     sparse cycles are memoized and dense ones are computed directly;
     caching the dense tail costs more in misses and GC-visible table
     growth than it saves. *)

module Memo = struct
  type stats = { hits : int; misses : int; flushes : int; size : int }

  module Key = struct
    type t = int array

    let equal a b =
      let n = Array.length a in
      n = Array.length b
      &&
      let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
      go 0

    (* FNV-1a over the key words, folded into OCaml's native int. *)
    let fnv_prime = 0x100000001B3

    let hash a =
      let h = ref 0x1545A257 in
      Array.iter (fun w -> h := (!h lxor w) * fnv_prime land max_int) a;
      !h land 0x3FFFFFFF
  end

  module Tbl = Hashtbl.Make (Key)

  type entry = {
    e_order : int list;  (* ports unioned into the packet, union order *)
    e_issued : int list;
    e_rejected : reject list;
  }

  type t = {
    check : Scheme_kind.t -> Packet.t -> Packet.t -> Conflict.failure option;
    scheme : Scheme.t;
    n : int;
    cap : int;
    mask_keyed : bool;  (* pure-CSMT scheme: ports keyed by cluster mask *)
    max_live : int;  (* densest cycle worth memoizing *)
    scratch : int array;  (* staged lookup key, reused every cycle *)
    tbl : entry Tbl.t;
    mutable hits : int;
    mutable misses : int;
    mutable flushes : int;
        (* whole-table flushes on reaching capacity; hit/miss tallies
           are cumulative across flushes by construction — only the
           entries are dropped, never the counters *)
  }

  let create ?(cap = 1 lsl 16) (machine : Vliw_isa.Machine.t) ~routing scheme =
    let n = Scheme.n_threads scheme in
    let mask_keyed = Scheme.block_count Scheme_kind.Smt scheme = 0 in
    {
      check = Conflict.check machine ~routing;
      scheme;
      n;
      cap;
      mask_keyed;
      max_live = (if mask_keyed then n else 2);
      (* rotation, then one word per port; a stalled port is -1 (masks
         and intern ids are >= 0). *)
      scratch = Array.make (1 + n) 0;
      tbl = Tbl.create 256;
      hits = 0;
      misses = 0;
      flushes = 0;
    }

  let replay avail = function
    | [] -> None
    | hw :: rest ->
      let first = Option.get avail.(hw) in
      Some
        (List.fold_left
           (fun acc hw -> Packet.union acc (Option.get avail.(hw)))
           first rest)

  (* [issue_only] callers never read the merged packet (they only need
     who issued and who was rejected), so the scheme
     tree is evaluated with signature-only unions and hits skip packet
     reconstruction entirely. Full callers rebuild the packet by folding
     real unions over the recorded union order — the same construction
     either way, so both modes agree bit-for-bit on the packet when it
     is materialized. *)
  let empty = { packet = None; issued = []; rejected = [] }

  (* Replayed thread ids are positional: port i must carry hardware
     thread i wrapping a single instruction (as the simulator's
     candidate packets do), else a key collision across
     differently-threaded packets would replay the wrong ids. *)
  let rec positional avail n i =
    i >= n
    || (match avail.(i) with
       | None -> positional avail n (i + 1)
       | Some (p : Packet.t) ->
         p.threads = 1 lsl i && p.sid >= 0 && positional avail n (i + 1))

  let select_with ~issue_only t ~rotation avail =
    assert (Array.length avail >= t.n);
    assert (positional avail t.n 0);
    let rotation = ((rotation mod t.n) + t.n) mod t.n in
    let words = t.scratch in
    words.(0) <- rotation;
    let live = ref 0 and last = ref (-1) in
    for i = 0 to t.n - 1 do
      words.(i + 1) <-
        (match avail.(i) with
        | None -> -1
        | Some (p : Packet.t) ->
          incr live;
          last := i;
          if t.mask_keyed then p.mask else p.sid)
    done;
    if !live = 0 then empty
    else if !live = 1 then
      (* One candidate meets no other packet at any merge block: it
         issues alone, nothing can be rejected. *)
      { packet = avail.(!last); issued = [ !last ]; rejected = [] }
    else if !live > t.max_live then
      if issue_only then
        let sel =
          sel_of
            (select_core ~union:Packet.union_sig ~check:t.check t.scheme
               ~rotation avail)
        in
        { sel with packet = None }
      else sel_of (select_core ~check:t.check t.scheme ~rotation avail)
    else begin
      match Tbl.find t.tbl words with
      | e ->
        t.hits <- t.hits + 1;
        {
          packet = (if issue_only then None else replay avail e.e_order);
          issued = e.e_issued;
          rejected = e.e_rejected;
        }
      | exception Not_found ->
        t.misses <- t.misses + 1;
        let sel, obuf, olen =
          select_core ~union:Packet.union_sig ~check:t.check t.scheme ~rotation
            avail
        in
        let order = Array.to_list (Array.sub obuf 0 olen) in
        if Tbl.length t.tbl >= t.cap then begin
          Tbl.reset t.tbl;
          t.flushes <- t.flushes + 1
        end;
        Tbl.add t.tbl (Array.copy words)
          { e_order = order; e_issued = sel.issued; e_rejected = sel.rejected };
        if issue_only then { sel with packet = None }
        else { sel with packet = replay avail order }
    end

  let select t ?(rotation = 0) avail = select_with ~issue_only:false t ~rotation avail

  let select_issue t ?(rotation = 0) avail =
    select_with ~issue_only:true t ~rotation avail

  let stats t =
    {
      hits = t.hits;
      misses = t.misses;
      flushes = t.flushes;
      size = Tbl.length t.tbl;
    }
end

(* --- batched bit-parallel kernel --------------------------------------

   A compiled evaluator for one (machine, routing, scheme): the cycle's
   candidates are packed into flat int lanes (one word-level signature
   lane per cluster), and the scheme tree is evaluated with word-parallel
   bitwise/integer ops over those lanes. No per-thread closures, no
   per-node option allocation, no list construction: the traversal is
   top-level recursion over the immutable scheme tree, intermediate
   packets live in depth-indexed accumulator registers, and the outcome
   is three thread bitmasks plus the union-order buffer. [eval] therefore
   allocates nothing — the simulator's steady-state loop can run it every
   cycle and stay off the minor heap.

   The conflict decisions are the same integer/bitmask arithmetic as
   {!Conflict.check}, applied to the register lanes instead of packets;
   the traversal mirrors [eval]/[eval_children] exactly (same
   accumulate-then-check fold, same reject and union-order bookkeeping),
   so [select_batched] agrees bit-for-bit with [select] — property-tested
   against [select_reference] like the signature fast path. *)

module Batch = struct
  type t = {
    machine : Vliw_isa.Machine.t;
    routing : Conflict.routing_mode;
    scheme : Scheme.t;
    n : int;
    clusters : int;
    (* Lane maintenance is gated by what the scheme's checks read: a
       pure-CSMT scheme never looks past the cluster masks, flexible SMT
       reads packed counts, fixed-slot SMT reads pinned masks. *)
    need_counts : bool;
    need_pins : bool;
    (* Port lanes, indexed by hardware thread; [i * clusters + c] in the
       flattened per-cluster arrays. *)
    mutable live : int;  (* bitmask of ports holding a candidate *)
    p_threads : int array;
    p_mask : int array;
    p_counts : int array;
    p_pins : int array;
    (* Accumulator registers, one per tree depth: the merge node at
       depth [d] accumulates in register [d] while its children
       evaluate into register [d+1]. *)
    r_threads : int array;
    r_mask : int array;
    r_counts : int array;
    r_pins : int array;
    order : int array;  (* accepted leaves in union order *)
    mutable order_len : int;
    mutable out_issued : int;  (* outcome thread bitmasks *)
    mutable out_conflict : int;
    mutable out_capacity : int;
  }

  let create (machine : Vliw_isa.Machine.t) ~routing scheme =
    let n = Scheme.n_threads scheme in
    let clusters = machine.Vliw_isa.Machine.clusters in
    let smt_blocks = Scheme.block_count Scheme_kind.Smt scheme in
    let depths = Scheme.levels scheme + 1 in
    {
      machine;
      routing;
      scheme;
      n;
      clusters;
      need_counts = smt_blocks > 0 && routing = Conflict.Flexible;
      need_pins = smt_blocks > 0 && routing = Conflict.Fixed_slots;
      live = 0;
      p_threads = Array.make n 0;
      p_mask = Array.make n 0;
      p_counts = Array.make (n * clusters) 0;
      p_pins = Array.make (n * clusters) 0;
      r_threads = Array.make depths 0;
      r_mask = Array.make depths 0;
      r_counts = Array.make (depths * clusters) 0;
      r_pins = Array.make (depths * clusters) 0;
      order = Array.make n 0;
      order_len = 0;
      out_issued = 0;
      out_conflict = 0;
      out_capacity = 0;
    }

  let scheme t = t.scheme

  let clear t = t.live <- 0

  let clear_port t i = t.live <- t.live land lnot (1 lsl i)

  let set_port t i (sg : Vliw_isa.Instr.signature) =
    t.live <- t.live lor (1 lsl i);
    t.p_threads.(i) <- 1 lsl i;
    t.p_mask.(i) <- sg.sg_mask;
    if t.need_counts then
      Array.blit sg.sg_counts 0 t.p_counts (i * t.clusters) t.clusters;
    if t.need_pins then
      Array.blit sg.sg_pins 0 t.p_pins (i * t.clusters) t.clusters

  let set_port_packet t i (p : Packet.t) =
    t.live <- t.live lor (1 lsl i);
    t.p_threads.(i) <- p.threads;
    t.p_mask.(i) <- p.mask;
    if t.need_counts then
      Array.blit p.counts 0 t.p_counts (i * t.clusters) t.clusters;
    if t.need_pins then
      Array.blit p.pins 0 t.p_pins (i * t.clusters) t.clusters

  (* Conflict decisions as integer codes (0 compatible, 1 cluster
     conflict, 2 slot capacity) between registers [d] and [s] — the same
     arithmetic as {!Conflict.check}, minus the option allocation. *)
  let rec flexible_fits t a b c =
    c >= t.clusters
    || (Vliw_isa.Instr.packed_fits t.machine
          (t.r_counts.(a + c) + t.r_counts.(b + c))
       && flexible_fits t a b (c + 1))

  let rec fixed_code t a b shared c =
    if c >= t.clusters then 0
    else if shared land (1 lsl c) = 0 then fixed_code t a b shared (c + 1)
    else begin
      let pa = t.r_pins.(a + c) and pb = t.r_pins.(b + c) in
      if pa <> -1 && pb <> -1 then
        if pa land pb = 0 then fixed_code t a b shared (c + 1) else 1
      else 2
    end

  let check_code t kind d s =
    match ((kind : Scheme_kind.t), t.routing) with
    | Scheme_kind.Csmt, _ -> if t.r_mask.(d) land t.r_mask.(s) = 0 then 0 else 1
    | Smt, Conflict.Flexible ->
      if flexible_fits t (d * t.clusters) (s * t.clusters) 0 then 0 else 2
    | Smt, Conflict.Fixed_slots ->
      fixed_code t (d * t.clusters) (s * t.clusters)
        (t.r_mask.(d) land t.r_mask.(s))
        0

  let load_port t d i =
    t.r_threads.(d) <- t.p_threads.(i);
    t.r_mask.(d) <- t.p_mask.(i);
    if t.need_counts then
      Array.blit t.p_counts (i * t.clusters) t.r_counts (d * t.clusters)
        t.clusters;
    if t.need_pins then
      Array.blit t.p_pins (i * t.clusters) t.r_pins (d * t.clusters) t.clusters

  let copy_reg t d s =
    t.r_threads.(d) <- t.r_threads.(s);
    t.r_mask.(d) <- t.r_mask.(s);
    if t.need_counts then
      Array.blit t.r_counts (s * t.clusters) t.r_counts (d * t.clusters)
        t.clusters;
    if t.need_pins then
      Array.blit t.r_pins (s * t.clusters) t.r_pins (d * t.clusters) t.clusters

  let union_into t d s =
    t.r_threads.(d) <- t.r_threads.(d) lor t.r_threads.(s);
    t.r_mask.(d) <- t.r_mask.(d) lor t.r_mask.(s);
    if t.need_counts then begin
      let a = d * t.clusters and b = s * t.clusters in
      for c = 0 to t.clusters - 1 do
        t.r_counts.(a + c) <- t.r_counts.(a + c) + t.r_counts.(b + c)
      done
    end;
    if t.need_pins then begin
      let a = d * t.clusters and b = s * t.clusters in
      for c = 0 to t.clusters - 1 do
        let pa = t.r_pins.(a + c) and pb = t.r_pins.(b + c) in
        t.r_pins.(a + c) <- (if pa = -1 || pb = -1 then -1 else pa lor pb)
      done
    end

  (* The tree fold of [eval]/[eval_children] on register lanes: the node
     evaluates into register [d] and reports whether it produced a value.
     An accepted leaf appends its port to [order]; a rejected subtree
     truncates back to the mark and books its threads under the failure
     cause — identical bookkeeping, no allocation. *)
  let rec eval_node t d rotation node =
    match (node : Scheme.t) with
    | Scheme.Thread i ->
      let hw = (i + rotation) mod t.n in
      if t.live land (1 lsl hw) = 0 then false
      else begin
        load_port t d hw;
        t.order.(t.order_len) <- hw;
        t.order_len <- t.order_len + 1;
        true
      end
    | Scheme.Merge { kind; impl = _; inputs } ->
      eval_inputs t d rotation kind false inputs

  and eval_inputs t d rotation kind has_acc = function
    | [] -> has_acc
    | input :: rest ->
      let mark = t.order_len in
      let has_acc =
        if not (eval_node t (d + 1) rotation input) then has_acc
        else if not has_acc then begin
          copy_reg t d (d + 1);
          true
        end
        else begin
          (match check_code t kind d (d + 1) with
          | 0 -> union_into t d (d + 1)
          | code ->
            t.order_len <- mark;
            if code = 1 then
              t.out_conflict <- t.out_conflict lor t.r_threads.(d + 1)
            else t.out_capacity <- t.out_capacity lor t.r_threads.(d + 1));
          true
        end
      in
      eval_inputs t d rotation kind has_acc rest

  let eval t ~rotation =
    let rotation = ((rotation mod t.n) + t.n) mod t.n in
    t.order_len <- 0;
    t.out_conflict <- 0;
    t.out_capacity <- 0;
    t.out_issued <-
      (if eval_node t 0 rotation t.scheme then t.r_threads.(0) else 0)

  let issued t = t.out_issued

  let rejected_conflict t = t.out_conflict

  let rejected_capacity t = t.out_capacity

  (* The merged packet of the last [eval]: the accepted ports'
     candidates, [port hw] for port [hw], folded with [Packet.union] in
     union order — the construction the tree walk performs. *)
  let packet t port =
    let rec fold acc k =
      if k >= t.order_len then acc
      else fold (Packet.union acc (port t.order.(k))) (k + 1)
    in
    if t.order_len = 0 then None else Some (fold (port t.order.(0)) 1)
end

let select_batched m ?(routing = Conflict.Flexible) scheme ?(rotation = 0) avail
    =
  let b = Batch.create m ~routing scheme in
  Array.iteri
    (fun i p ->
      if i < b.Batch.n then
        match p with
        | None -> ()
        | Some p -> Batch.set_port_packet b i p)
    avail;
  Batch.eval b ~rotation;
  let packet = Batch.packet b (fun hw -> Option.get avail.(hw)) in
  let issued = Packet.bits_to_list (Batch.issued b) in
  let rejected = ref [] in
  let conflict = Batch.rejected_conflict b
  and capacity = Batch.rejected_capacity b in
  for thread = b.Batch.n - 1 downto 0 do
    if conflict land (1 lsl thread) <> 0 then
      rejected := { thread; cause = Conflict.Cluster_conflict } :: !rejected
    else if capacity land (1 lsl thread) <> 0 then
      rejected := { thread; cause = Conflict.Slot_capacity } :: !rejected
  done;
  { packet; issued; rejected = !rejected }
