//! Property-based tests for the hardware/energy models.

use hw_sim::battery::Battery;
use hw_sim::ble::{BleLink, ConnectionSchedule};
use hw_sim::platform::Platform;
use hw_sim::profile::Workload;
use hw_sim::units::{Energy, Power, TimeSpan};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn energy_and_time_grow_with_macs(macs_a in 0u64..5_000_000, extra in 1u64..5_000_000) {
        for platform in [Platform::stm32wb55(), Platform::raspberry_pi3()] {
            let small = Workload::Macs(macs_a);
            let large = Workload::Macs(macs_a + extra);
            prop_assert!(platform.execution_time(&large) > platform.execution_time(&small));
            prop_assert!(platform.compute_energy(&large) > platform.compute_energy(&small));
            prop_assert!(platform.cycles(&large) > platform.cycles(&small));
        }
    }

    #[test]
    fn energy_per_prediction_is_at_least_compute_energy(macs in 0u64..20_000_000) {
        let watch = Platform::stm32wb55();
        let wl = Workload::Macs(macs);
        prop_assert!(watch.energy_per_prediction(&wl) >= watch.compute_energy(&wl));
    }

    #[test]
    fn power_times_time_is_bilinear(mw in 0.0f64..2000.0, ms in 0.0f64..5000.0, k in 0.1f64..10.0) {
        let p = Power::from_milliwatts(mw);
        let t = TimeSpan::from_millis(ms);
        let scaled = Power::from_milliwatts(mw * k) * t;
        let base = p * t;
        prop_assert!((scaled.as_millijoules() - base.as_millijoules() * k).abs() < 1e-6 * (1.0 + base.as_millijoules().abs()));
    }

    #[test]
    fn ble_transfer_cost_is_monotone_in_payload(bytes in 0usize..100_000, extra in 1usize..100_000) {
        let link = BleLink::paper_calibrated();
        prop_assert!(link.transfer_time(bytes + extra) > link.transfer_time(bytes));
        prop_assert!(link.transfer_energy(bytes + extra) > link.transfer_energy(bytes));
    }

    #[test]
    fn duty_cycle_availability_matches_ratio(up in 1usize..20, down in 0usize..20) {
        let schedule = ConnectionSchedule::DutyCycle { up, down };
        let period = up + down;
        let horizon = period * 50;
        let expected = up as f64 / period as f64;
        let measured = schedule.availability(horizon);
        prop_assert!((measured - expected).abs() < 1e-9);
    }

    #[test]
    fn battery_drain_conserves_energy(
        capacity_mah in 10.0f64..1000.0,
        efficiency in 0.5f64..1.0,
        drains in prop::collection::vec(0.1f64..50.0, 0..20)
    ) {
        let mut battery = Battery::new(capacity_mah, 3.7, efficiency).unwrap();
        let initial = battery.remaining();
        let mut total_drawn = Energy::ZERO;
        for mj in drains {
            let load = Energy::from_millijoules(mj);
            if battery.drain(load).is_ok() {
                total_drawn += load / efficiency;
            }
        }
        let expected = initial - total_drawn;
        prop_assert!((battery.remaining().as_millijoules() - expected.as_millijoules()).abs() < 1e-6);
        prop_assert!(battery.remaining().as_millijoules() >= -1e-9);
        prop_assert!(battery.state_of_charge() <= 1.0 + 1e-12);
    }

    #[test]
    fn battery_lifetime_halves_when_power_doubles(power_mw in 0.01f64..100.0) {
        let battery = Battery::hwatch();
        let life = battery.lifetime(Power::from_milliwatts(power_mw));
        let half_life = battery.lifetime(Power::from_milliwatts(power_mw * 2.0));
        prop_assert!((life.as_seconds() / half_life.as_seconds() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cycles_workload_time_scales_with_clock(cycles in 1u64..100_000_000) {
        let watch = Platform::stm32wb55();
        let phone = Platform::raspberry_pi3();
        let wl = Workload::Cycles(cycles);
        let ratio = watch.execution_time(&wl).as_seconds() / phone.execution_time(&wl).as_seconds();
        // 600 MHz / 64 MHz = 9.375.
        prop_assert!((ratio - 9.375).abs() < 1e-6);
    }
}

/// Every schedule variant, degenerate ones included: duty cycles with `up`
/// or `down` at zero.
fn schedules() -> impl Strategy<Value = ConnectionSchedule> {
    (0u8..3, (0usize..6, 0usize..6)).prop_map(|(variant, (up, down))| match variant {
        0 => ConnectionSchedule::AlwaysConnected,
        1 => ConnectionSchedule::NeverConnected,
        _ => ConnectionSchedule::DutyCycle { up, down },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reaches_matches_the_window_walk(schedule in schedules(), n in 0usize..48) {
        let walked = [true, false].map(|connected| (0..n).any(|i| schedule.is_connected(i) == connected));
        prop_assert_eq!(schedule.reaches(n), walked, "{:?} over {} windows", schedule, n);
    }
}
