//! The peak extractor as it was before it walked days as slices: a
//! `TimeSeries` per day from `split_whole_days`, a cloned peak list
//! for the survivors, an O(p) search per report row and a timestamp
//! lookup per extracted slice. Kept for the differential tests, which
//! hold [`PeakExtractor`]'s `extract` to it output for output.

use super::{weighted_pick, PeakExtractor};
use crate::extractor::build_offer;
use crate::io::{PeakDayReport, PeakInfo};
use crate::{Diagnostics, ExtractionError, ExtractionInput, ExtractionOutput};
use flextract_series::peaks::{detect_peaks, filter_peaks, selection_probabilities};
use flextract_series::segment::split_whole_days;
use flextract_series::TimeSeries;
use rand::rngs::StdRng;

/// The old `PeakExtractor::extract`.
pub(crate) fn extract(
    ex: &PeakExtractor,
    input: &ExtractionInput<'_>,
    rng: &mut StdRng,
) -> Result<ExtractionOutput, ExtractionError> {
    ex.cfg.validate()?;
    let series = input.series;
    if series.is_empty() {
        return Err(ExtractionError::EmptySeries);
    }
    let mut modified = series.clone();
    let mut extracted = TimeSeries::zeros_like(series);
    let mut offers = Vec::new();
    let mut diagnostics = Diagnostics::default();
    let mut next_id = 1u64;

    for day in split_whole_days(series) {
        let day_total = day.total_energy();
        if day_total <= 0.0 {
            diagnostics.notes.push(format!(
                "{}: zero-consumption day skipped",
                day.start().date()
            ));
            continue;
        }
        let (threshold, all_peaks) = detect_peaks(&day, ex.threshold)?;
        let min_peak_energy = ex.cfg.flexible_share * day_total;
        let survivors = filter_peaks(all_peaks.clone(), min_peak_energy);
        let probs = selection_probabilities(&survivors);
        let chosen = weighted_pick(rng, &probs);

        let mut report = PeakDayReport {
            day: day.start(),
            day_total_kwh: day_total,
            threshold_kwh: threshold,
            min_peak_energy_kwh: min_peak_energy,
            peaks: Vec::with_capacity(all_peaks.len()),
            selected: None,
        };
        for (i, p) in all_peaks.iter().enumerate() {
            let surv_idx = survivors
                .iter()
                .position(|s| s.start_index == p.start_index);
            report.peaks.push(PeakInfo {
                number: i + 1,
                start: p.range.start(),
                intervals: p.len,
                size_kwh: p.energy_kwh,
                survived_filter: surv_idx.is_some(),
                probability: surv_idx.map(|j| probs[j]).unwrap_or(0.0),
            });
        }

        let Some(sel) = chosen else {
            diagnostics.notes.push(format!(
                "{}: no peak survived the {min_peak_energy:.3} kWh filter",
                day.start().date()
            ));
            diagnostics.peak_reports.push(report);
            continue;
        };
        let peak = &survivors[sel];
        report.selected = all_peaks
            .iter()
            .position(|p| p.start_index == peak.start_index)
            .map(|i| i + 1);
        diagnostics.peak_reports.push(report);

        let n = peak.len.min(ex.cfg.slices_per_offer.1).max(1);
        let window = &day.values()[peak.start_index..peak.start_index + n];
        let window_energy: f64 = window.iter().sum();
        let mut energies: Vec<f64> = window
            .iter()
            .map(|c| min_peak_energy * c / window_energy)
            .collect();
        for (k, e) in energies.iter_mut().enumerate() {
            let global = modified
                .index_of(day.timestamp_of(peak.start_index + k))
                .expect("peak intervals lie inside the series");
            let available = modified.values()[global].max(0.0);
            *e = e.min(available);
            modified.values_mut()[global] -= *e;
            extracted.values_mut()[global] += *e;
        }
        let offer = build_offer(next_id, &ex.cfg, rng, peak.range.start(), &energies)?;
        next_id += 1;
        offers.push(offer);
    }
    Ok(ExtractionOutput {
        approach: "peak",
        flex_offers: offers,
        modified_series: modified,
        extracted_series: extracted,
        diagnostics,
    })
}
