//! Regenerate Table II: DUAL parameters — per-component area and power,
//! composed bottom-up from the 28 nm constants.

use std::fmt::Write as _;

use super::{table, Result};
use dual_pim::{AreaPowerModel, ChipConfig};

pub fn run(out: &mut String) -> Result {
    let model = AreaPowerModel::paper();
    let cfg = ChipConfig::paper();
    let rows: Vec<Vec<String>> = model
        .table2(cfg)
        .into_iter()
        .map(|(component, spec, area_um2, power_mw)| {
            let area = if area_um2 >= 1e5 {
                format!("{:.2} mm2", area_um2 * 1e-6)
            } else {
                format!("{area_um2:.2} um2")
            };
            let power = if power_mw >= 1000.0 {
                format!("{:.2} W", power_mw * 1e-3)
            } else {
                format!("{power_mw:.2} mW")
            };
            vec![component.to_string(), spec, area, power]
        })
        .collect();
    table(
        out,
        "Table II: DUAL parameters (paper: block 3217.19 um2 / 8.79 mW, tile 0.84 mm2 / 1.76 W, total 53.57 mm2 / 113.51 W)",
        &["Component", "Spec", "Area", "Power"],
        &rows,
    );
    writeln!(
        out,
        "capacities: block = {} Kb, tile = {} MB, chip = {} GB",
        cfg.block_bits() >> 10,
        cfg.tile_bytes() >> 20,
        cfg.chip_bytes() >> 30
    )?;
    Ok(())
}
