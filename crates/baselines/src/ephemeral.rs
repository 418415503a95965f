//! Published reference numbers for the ephemeral-storage shuffle systems
//! the exchange operator is compared against (Table 3).
//!
//! Pocket (Klimovic et al., OSDI'18) and Locus (Pu et al., NSDI'19) both
//! require additional VM-based infrastructure; their numbers are quoted
//! from the respective papers as the comparison rows of Table 3.

/// One row of Table 3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShuffleReference {
    pub system: &'static str,
    pub workers: Option<u64>,
    pub storage: &'static str,
    pub seconds: f64,
}

/// Published 100 GB shuffle timings (Table 3).
pub fn table3_references() -> Vec<ShuffleReference> {
    vec![
        ShuffleReference { system: "Pocket", workers: Some(250), storage: "S3", seconds: 98.0 },
        ShuffleReference { system: "Pocket", workers: Some(250), storage: "VMs", seconds: 58.0 },
        ShuffleReference { system: "Pocket", workers: Some(500), storage: "VMs", seconds: 28.0 },
        ShuffleReference { system: "Pocket", workers: Some(1000), storage: "VMs", seconds: 18.0 },
        ShuffleReference { system: "Locus", workers: None, storage: "VMs", seconds: 80.0 },
        ShuffleReference { system: "Locus (slow)", workers: None, storage: "VMs", seconds: 140.0 },
    ]
}

/// The paper's own Lambada rows of Table 3 (the paper column of the
/// `tab03_exchange_time` bench's paper-vs-measured rows).
pub fn table3_lambada_paper() -> Vec<(u64, f64)> {
    vec![(250, 22.0), (500, 15.0), (1000, 13.0)]
}

/// Locus' 1 TB shuffle (§5.5): 39 s with VM-based fast storage.
pub fn locus_1tb_seconds() -> f64 {
    39.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambada_beats_pocket_s3_by_5x_at_250() {
        // §5.5: "Compared to the S3-based baseline implementation in the
        // work on Pocket, Lambada runs 5× faster on 250 workers."
        let pocket_s3 = table3_references()
            .into_iter()
            .find(|r| r.system == "Pocket" && r.storage == "S3")
            .unwrap();
        let lambada_250 = table3_lambada_paper()[0].1;
        let speedup = pocket_s3.seconds / lambada_250;
        assert!((4.0..5.5).contains(&speedup), "speedup = {speedup}");
    }
}
