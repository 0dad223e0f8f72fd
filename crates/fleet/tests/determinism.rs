//! Property tests for the fleet engine's determinism guarantees:
//!
//! * a fleet run produces *byte-identical* aggregate reports for any worker
//!   thread count, with and without the profile cache's pool slots,
//! * a device's scenario depends only on `(master seed, device id)` — never
//!   on fleet size, generation order or the mix of other devices,
//! * every device of a pool slot has the slot's window-cache key, which is
//!   what lets the slot's one session stand in for each of them.

use fleet::{
    run_fleet_range, ExecutorOptions, FleetReport, FleetSimulation, ScenarioGenerator, ScenarioMix,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn fleet_reports_are_identical_for_1_2_and_8_threads(master_seed in 0u64..1000) {
        // The cohort mix with the cache on runs the pool-slot path; a fresh
        // simulation per run makes the workers of every thread count race
        // to fill the slots.
        let cases = [
            (ScenarioMix::balanced(), None),
            (ScenarioMix::cohort(), Some(usize::MAX)),
        ];
        for (mix, profile_cache) in cases {
            let mut outcomes = Vec::new();
            for threads in [1usize, 2, 8] {
                let simulation = FleetSimulation::new(master_seed, mix).unwrap();
                let options = ExecutorOptions {
                    threads,
                    profile_cache,
                    ..ExecutorOptions::default()
                };
                let devices = run_fleet_range(&simulation, 0..64, &options, None).unwrap();
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A pooled device's window-cache key is its slot's key, for any id —
    /// so a future scenario change cannot silently alias two inputs in one
    /// pool slot.
    #[test]
    fn pool_devices_share_their_slot_window_cache_key(
        master_seed in 0u64..10_000,
        device_id in 0u64..u64::MAX,
    ) {
        for subject_pool in [1u64, 3, 16] {
            let mix = ScenarioMix { subject_pool, ..ScenarioMix::cohort() };
            let generator = ScenarioGenerator::new(master_seed, mix);
            for id in [device_id, u64::MAX - 1] {
                prop_assert_eq!(
                    generator.scenario(id).window_cache_key().unwrap(),
                    generator.scenario(id % subject_pool).window_cache_key().unwrap()
                );
            }
        }
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
