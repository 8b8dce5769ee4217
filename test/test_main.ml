let () =
  (* Enforce the run invariants on every simulation the suite performs:
     each metrics record is conservation-checked by the Multitask hook,
     each telemetry snapshot by the attribution check. *)
  Vliw_sim.Invariants.set_enforced true;
  Alcotest.run "vliw-merge-repro"
    [
      Test_rng.suite;
      Test_stats.suite;
      Test_util_render.suite;
      Test_isa.suite;
      Test_cache.suite;
      Test_mem.suite;
      Test_compiler.suite;
      Test_merge.suite;
      Test_engine.suite;
      Test_fastpath.suite;
      Test_cost.suite;
      Test_sim.suite;
      Test_adaptive.suite;
      Test_pinned.suite;
      Test_workloads.suite;
      Test_parallel.suite;
      Test_telemetry.suite;
      Test_experiments.suite;
      Test_extensions.suite;
      Test_features.suite;
      Test_repro.suite;
      Test_faults.suite;
      Test_observability.suite;
      Test_service.suite;
      Test_dist.suite;
      Test_cli.suite;
    ]
