//! Property tests for the fleet engine's determinism guarantees:
//!
//! * a fleet run produces *byte-identical* aggregate reports for any worker
//!   thread count,
//! * a device's scenario depends only on `(master seed, device id)` — never
//!   on fleet size, generation order or the mix of other devices.

use fleet::{
    run_fleet_range, ExecutorOptions, FleetReport, FleetSimulation, ScenarioGenerator, ScenarioMix,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn fleet_reports_are_identical_for_1_2_and_8_threads(master_seed in 0u64..1000) {
        let simulation = FleetSimulation::new(master_seed, ScenarioMix::balanced()).unwrap();

        let mut outcomes = Vec::new();
        for threads in [1usize, 2, 8] {
            let options = ExecutorOptions {
                threads,
                ..ExecutorOptions::default()
            };
            let devices = run_fleet_range(
                simulation.generator(),
                0..64,
                simulation.zoo(),
                simulation.engine(),
                &options,
                None,
            )
            .unwrap();
            let report = FleetReport::from_devices(&devices);
            // Byte-identical serialized output, not merely `==`.
            let json = serde_json::to_string(&report).unwrap();
            outcomes.push((devices, report, json));
        }
        prop_assert_eq!(outcomes[0].0.len(), 64);
        prop_assert_eq!(&outcomes[0].0, &outcomes[1].0);
        prop_assert_eq!(&outcomes[0].0, &outcomes[2].0);
        prop_assert_eq!(&outcomes[0].1, &outcomes[1].1);
        prop_assert_eq!(&outcomes[0].1, &outcomes[2].1);
        prop_assert_eq!(&outcomes[0].2, &outcomes[1].2);
        prop_assert_eq!(&outcomes[0].2, &outcomes[2].2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn scenarios_depend_only_on_master_seed_and_device_id(
        master_seed in 0u64..10_000,
        device_id in 0u64..100_000,
    ) {
        let mix = ScenarioMix::balanced();
        let direct = ScenarioGenerator::new(master_seed, mix).scenario(device_id);
        let rebuilt = ScenarioGenerator::new(master_seed, mix).scenario(device_id);
        prop_assert_eq!(&direct, &rebuilt);

        // Embedding the device in fleets of different sizes never changes it.
        let generator = ScenarioGenerator::new(master_seed, mix);
        for (id, scenario) in generator.scenarios(device_id % 7 + 1).enumerate() {
            prop_assert_eq!(&scenario, &generator.scenario(id as u64));
        }

        // A different master seed or device id yields a different stream.
        let other = ScenarioGenerator::new(master_seed.wrapping_add(1), mix).scenario(device_id);
        prop_assert_ne!(direct.dataset_seed, other.dataset_seed);
    }
}
