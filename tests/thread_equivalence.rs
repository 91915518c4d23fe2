//! Driver-parallelism equivalence: results must be bit-identical when
//! `SGCN_THREADS` forces real multi-threading, even on a single-CPU
//! host where the default driver degenerates to serial execution.
//!
//! The serving path is the probe because it memoizes nothing across
//! calls — every distinct request vertex really re-simulates under each
//! thread count. The whole
//! check lives in **one** test function: `SGCN_THREADS` is process
//! state, and sibling tests in this binary would race the variable.

use sgcn::accel::AccelModel;
use sgcn::experiments::{serving_fanout_sweep, ExperimentConfig};
use sgcn::serving::queueing::{prepare, PreparedRequest};
use sgcn::serving::{ServeSummary, ServingConfig, ServingContext};
use sgcn_graph::datasets::DatasetId;
use sgcn_graph::sampling::Fanouts;

fn serve_probe() -> (Vec<PreparedRequest>, String) {
    let cfg = ExperimentConfig::quick();
    let ctx = ServingContext::new(ServingConfig {
        dataset: DatasetId::Cora,
        scale: cfg.scale,
        fanouts: Fanouts::new(vec![8, 4]),
        width: cfg.width,
        seed: cfg.seed,
    });
    let stream = ctx.request_stream(48);
    let batch = prepare(&ctx, &stream, &AccelModel::sgcn(), &cfg.hw());
    let json = ServeSummary::from_reports(&batch).to_json("probe");
    (batch, json)
}

#[test]
fn forced_two_and_four_workers_match_serial_bit_for_bit() {
    let cfg = ExperimentConfig::quick();

    std::env::set_var("SGCN_THREADS", "1");
    assert_eq!(sgcn_par::threads(), 1);
    let (serial_batch, serial_json) = serve_probe();
    let serial_grid = serving_fanout_sweep(&cfg, DatasetId::Cora, &[vec![6, 3]], 24);

    for workers in ["2", "4"] {
        std::env::set_var("SGCN_THREADS", workers);
        assert_eq!(sgcn_par::threads(), workers.parse::<usize>().unwrap());
        let (batch, json) = serve_probe();
        assert_eq!(
            batch, serial_batch,
            "SGCN_THREADS={workers} changed per-request reports"
        );
        assert_eq!(
            json, serial_json,
            "SGCN_THREADS={workers} changed the serving summary"
        );
        let grid = serving_fanout_sweep(&cfg, DatasetId::Cora, &[vec![6, 3]], 24);
        assert_eq!(
            grid, serial_grid,
            "SGCN_THREADS={workers} changed the fanout-sweep grid"
        );
    }
    std::env::remove_var("SGCN_THREADS");
}
