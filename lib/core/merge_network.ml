(* The merge network as a first-class runtime object.

   This module bundles everything the per-cycle issue stage needs — the
   scheme tree, the routing mode, the priority-rotation rule and the
   scheme's batched evaluator — behind a handle that can be reconfigured
   mid-simulation.

   Reconfiguration discipline:
   - A swap builds the new scheme's [Engine.Batch]. Decisions are pure
     functions of the loaded ports and the rotation, so a fresh
     evaluator decides bit-identically to one that has run before.
   - Rotation state is derived, not stored: the caller passes the
     rotation each cycle (the core derives it from the cycle counter),
     so a swap re-seeds priority rotation deterministically — the
     round-robin simply continues from the switch cycle.
   - The handle is single-domain, like the evaluator it owns: sweep
     workers must each create their own network. *)

type t = {
  machine : Vliw_isa.Machine.t;
  routing : Conflict.routing_mode;
  n : int;  (* thread ports; fixed for the lifetime of the network *)
  mutable name : string;
  mutable scheme : Scheme.t;
  mutable batch : Engine.Batch.t;
  mutable reconfigurations : int;
}

(* Prefer the catalog name for display (profile tables, telemetry
   events); fall back to the structural rendering for anonymous
   schemes. *)
let display_name scheme =
  match
    List.find_opt
      (fun (e : Catalog.entry) -> Scheme.equal e.scheme scheme)
      Catalog.all
  with
  | Some e -> e.name
  | None -> Scheme.to_string scheme

let validate_scheme scheme =
  match Scheme.validate scheme with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Merge_network: invalid scheme: " ^ msg)

let create ?name machine ~routing scheme =
  validate_scheme scheme;
  {
    machine;
    routing;
    n = Scheme.n_threads scheme;
    name = (match name with Some n -> n | None -> display_name scheme);
    scheme;
    batch = Engine.Batch.create machine ~routing scheme;
    reconfigurations = 0;
  }

let scheme t = t.scheme

let scheme_name t = t.name

let n_threads t = t.n

let routing t = t.routing

let same_scheme t other = Scheme.equal t.scheme other

let reconfigure t ?name scheme =
  if not (same_scheme t scheme) then begin
    validate_scheme scheme;
    if Scheme.n_threads scheme <> t.n then
      invalid_arg
        (Printf.sprintf
           "Merge_network.reconfigure: %d-thread scheme on a %d-port network"
           (Scheme.n_threads scheme) t.n);
    t.batch <- Engine.Batch.create t.machine ~routing:t.routing scheme;
    t.name <- (match name with Some n -> n | None -> display_name scheme);
    t.scheme <- scheme;
    t.reconfigurations <- t.reconfigurations + 1
  end

let reconfigurations t = t.reconfigurations

(* Priority rotation is a pure function of the cycle counter, so it is
   trivially re-seeded across a reconfiguration. *)
let rotation t ~rotate ~cycle = if rotate then cycle mod t.n else 0

let batch t = t.batch
