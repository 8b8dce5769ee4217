(* Shared QCheck generators for randomized tests. *)

module Isa = Vliw_isa
module Q = QCheck

let machine = Isa.Machine.default

(* A well-formed per-cluster operation list: respects the slot limits of
   one cluster (<=1 mem, <=2 mul, <=1 branch, total <= issue width). *)
let cluster_ops_gen ?(allow_branch = false) () =
  let open Q.Gen in
  let* n_mem = int_bound machine.n_lsu in
  let* n_mul = int_bound machine.n_mul in
  let* n_br = if allow_branch then int_bound machine.n_branch else pure 0 in
  let remaining = machine.issue_width - n_mem - n_mul - n_br in
  let* n_alu = int_bound (max 0 remaining) in
  let make klass count start =
    List.init count (fun i -> Isa.Op.make klass (start + i))
  in
  pure
    (make Isa.Op.Load n_mem 0
    @ make Isa.Op.Mul n_mul 10
    @ make Isa.Op.Branch n_br 20
    @ make Isa.Op.Alu n_alu 30)

(* A sparser distribution closer to real schedules: most clusters hold
   few ops, many are empty. *)
let sparse_cluster_ops_gen () =
  let open Q.Gen in
  let* density = int_bound 3 in
  if density = 0 then pure []
  else
    let* ops = cluster_ops_gen () in
    let* keep = int_bound (List.length ops) in
    pure (List.filteri (fun i _ -> i < keep) ops)

let instr_gen ?(sparse = true) () =
  let open Q.Gen in
  let cluster = if sparse then sparse_cluster_ops_gen () else cluster_ops_gen () in
  let* clusters = array_repeat machine.clusters cluster in
  pure (Isa.Instr.of_cluster_ops ~addr:0 clusters)

let instr_arb ?sparse () =
  Q.make
    ~print:(fun i -> Format.asprintf "%a" (Isa.Instr.pp machine) i)
    (instr_gen ?sparse ())

(* Candidate instruction sets for an n-thread merge engine: each thread
   offers an instruction, a NOP-only instruction, or is stalled. *)
let avail_gen n =
  let open Q.Gen in
  let slot =
    frequency
      [
        (6, map Option.some (instr_gen ()));
        (1, pure (Some (Isa.Instr.make ~clusters:machine.clusters ~addr:0)));
        (2, pure None);
      ]
  in
  array_repeat n slot

let avail_arb n =
  Q.make
    ~print:(fun avail ->
      String.concat ";\n"
        (Array.to_list
           (Array.map
              (function
                | None -> "stalled"
                | Some i -> Format.asprintf "%a" (Isa.Instr.pp machine) i)
              avail)))
    (avail_gen n)

(* Random well-formed schemes over n threads, mixing kinds, shapes and
   parallel CSMT nodes. *)
let scheme_gen n =
  let open Q.Gen in
  let module S = Vliw_merge.Scheme in
  let rec build leaves =
    match leaves with
    | [] -> assert false
    | [ x ] -> pure x
    | _ ->
      let* split = int_range 1 (List.length leaves - 1) in
      let left = List.filteri (fun i _ -> i < split) leaves in
      let right = List.filteri (fun i _ -> i >= split) leaves in
      let* l = build left in
      let* r = build right in
      let* kind = oneofl [ `Smt; `Csmt; `Cpar ] in
      (match kind with
      | `Smt -> pure (S.smt l r)
      | `Csmt -> pure (S.csmt l r)
      | `Cpar -> pure (S.csmt_parallel [ l; r ]))
  in
  build (List.init n S.thread)

let scheme_arb n = Q.make ~print:Vliw_merge.Scheme.to_string (scheme_gen n)

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- decoder robustness ------------------------------------------------ *)

(* Byte-level corruption of a well-formed encoding: replace, delete or
   insert one byte (any of the 256), one to three times. *)
let mutated gen =
  let open Q.Gen in
  let edit text =
    let n = String.length text in
    if n = 0 then map (String.make 1) char
    else
      int_bound (n - 1) >>= fun i ->
      char >>= fun c ->
      oneofl
        [
          String.mapi (fun j x -> if j = i then c else x) text;
          String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1);
          String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i);
        ]
  in
  let rec edits k text = if k = 0 then return text else edit text >>= edits (k - 1) in
  gen >>= fun text -> int_range 1 3 >>= fun k -> edits k text

(* A strict prefix of a well-formed encoding (possibly empty). *)
let truncated gen =
  let open Q.Gen in
  gen >>= fun text ->
  map (fun i -> String.sub text 0 i) (int_bound (max 0 (String.length text - 1)))

(* Arbitrary bytes, short and long. *)
let random_bytes = Q.Gen.(string_size ~gen:char (0 -- 200))

(* The three robustness properties of one line decoder over encodings
   drawn from [gen]: on a mutated line it answers [Ok] or [Error]; on a
   truncated line or random bytes it answers [Error]; it never raises.
   With [~truncation_fails:false] a strict prefix may also decode (a
   journal cut after its header is still a journal). *)
let decoder_robustness ?(truncation_fails = true) ~name ~decode gen =
  let run ~label ~must_fail input =
    let test line =
      match decode line with
      | Ok _ when must_fail ->
        Q.Test.fail_reportf "%s: accepted %S" label line
      | Ok _ | Error _ -> true
      | exception e ->
        Q.Test.fail_reportf "%s: raised %s on %S" label (Printexc.to_string e)
          line
    in
    Q.Test.make ~count:500
      ~name:(Printf.sprintf "%s: %s" name label)
      (Q.make ~print:(Printf.sprintf "%S") input)
      test
  in
  [
    run ~label:"mutated bytes never raise" ~must_fail:false (mutated gen);
    (if truncation_fails then
       run ~label:"truncation is an error" ~must_fail:true (truncated gen)
     else run ~label:"truncation never raises" ~must_fail:false (truncated gen));
    run ~label:"random bytes are an error" ~must_fail:true random_bytes;
  ]
