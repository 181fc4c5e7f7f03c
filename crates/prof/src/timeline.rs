//! Per-cycle timeline rendering: how the AMR hierarchy and communication
//! evolve over a run (text sparklines for examples and diagnostics).

use crate::recorder::Recorder;

const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a unicode sparkline (empty input → empty string).
pub fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-300);
    values
        .iter()
        .map(|v| {
            let t = ((v - min) / span * (BARS.len() - 1) as f64).round() as usize;
            BARS[t.min(BARS.len() - 1)]
        })
        .collect()
}

/// One-line summary of hierarchy evolution: block-count sparkline plus
/// totals.
pub fn evolution_line(rec: &Recorder) -> String {
    let blocks: Vec<f64> = rec.cycles().iter().map(|c| c.nblocks as f64).collect();
    let refined: u64 = rec.cycles().iter().map(|c| c.blocks_refined).sum();
    let merged: u64 = rec.cycles().iter().map(|c| c.blocks_derefined).sum();
    format!(
        "blocks {} (+{refined} refined, -{merged} merged over {} cycles)",
        sparkline(&blocks),
        rec.cycles().len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::StepFunction;

    fn recorder() -> Recorder {
        let mut rec = Recorder::new();
        for c in 0..4 {
            rec.begin_cycle(c);
            rec.record_p2p(StepFunction::SendBoundBufs, 100, 10 * (c + 1), true);
            rec.end_cycle(10 + c, u64::from(c == 1), 0, 1000 * (c + 1));
        }
        rec
    }

    #[test]
    fn sparkline_monotone_data() {
        let s = sparkline(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.chars().count(), 4);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[3], '█');
    }

    #[test]
    fn sparkline_flat_and_empty() {
        assert_eq!(sparkline(&[]), "");
        let flat = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(flat.chars().count(), 3);
    }

    #[test]
    fn evolution_line_totals() {
        let rec = recorder();
        let line = evolution_line(&rec);
        assert!(line.contains("+1 refined"));
        assert!(line.contains("4 cycles"));
    }
}
