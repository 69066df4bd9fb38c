//! Root-package seam test for the campaign server: the service path
//! (queue → worker fleet → cache) must reproduce a direct `Core` run
//! byte-for-byte, and a campaign chunk routed through the server must
//! match the direct campaign. The per-crate batteries live in
//! `crates/server/tests/`; this guards the cross-crate seam from the
//! facade's side of the workspace.

use orinoco::core::{Core, CoreConfig};
use orinoco::workloads::Workload;
use orinoco_server::{run_one_shot, ConfigSpec, JobResult, JobSpec, Server, SimSpec};

#[test]
fn server_one_shot_and_direct_core_agree() {
    let spec = SimSpec {
        config: ConfigSpec::orinoco_base(),
        workload: Workload::HashjoinLike,
        scale: 1,
        seed: 42,
        max_instrs: 10_000,
        max_cycles: 0,
        progress_cycles: 0,
    };

    // The direct path: same config and emulator, no server machinery.
    let cfg: CoreConfig = spec.config.to_core_config(spec.seed);
    let mut emu = spec.workload.build(spec.seed, spec.scale as u32);
    emu.set_step_limit(spec.max_instrs);
    let direct = Core::new(emu, cfg).run(100_000_000).cycles;

    let one_shot = run_one_shot(&spec).expect("one-shot");
    assert_eq!(one_shot.cycles, direct, "one-shot diverged from a direct Core run");

    let server = Server::new(2);
    let client = server.client();
    let JobResult::Sim(served) = client.run(JobSpec::Sim(spec)).expect("served job");
    assert_eq!(served, one_shot, "served result diverged from the one-shot path");
}
