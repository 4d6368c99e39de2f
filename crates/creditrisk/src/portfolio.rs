//! Portfolio structure: obligors, integer exposure bands, sectors.

/// One systematic risk sector (CreditRisk+ §II-D4 of the paper:
/// `S_k ~ Gamma(1/v_k, v_k)`, unit mean, variance `v_k`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sector {
    /// Sector variance `v_k` (the paper's representative value is 1.39).
    pub variance: f64,
}

/// One obligor (loan).
#[derive(Debug, Clone, PartialEq)]
pub struct Obligor {
    /// Expected default probability over the horizon.
    pub pd: f64,
    /// Exposure in integer loss units (CreditRisk+ banding).
    pub exposure: u32,
    /// Weight on the idiosyncratic factor (w_{i0} ≥ 0).
    pub specific_weight: f64,
    /// Weights on the systematic sectors (index, weight); together with
    /// `specific_weight` they must sum to 1.
    pub sector_weights: Vec<(usize, f64)>,
}

impl Obligor {
    /// Validate weight normalization and ranges.
    pub fn validate(&self, n_sectors: usize) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.pd) {
            return Err(format!("pd {} out of [0,1)", self.pd));
        }
        if self.exposure == 0 {
            return Err("exposure must be at least one loss unit".into());
        }
        let mut sum = self.specific_weight;
        for &(k, w) in &self.sector_weights {
            if k >= n_sectors {
                return Err(format!("sector index {k} out of range"));
            }
            if w < 0.0 {
                return Err("negative sector weight".into());
            }
            sum += w;
        }
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("weights sum to {sum}, expected 1"));
        }
        Ok(())
    }
}

/// A credit portfolio.
#[derive(Debug, Clone, PartialEq)]
pub struct Portfolio {
    /// Systematic sectors.
    pub sectors: Vec<Sector>,
    /// Obligors.
    pub obligors: Vec<Obligor>,
}

impl Portfolio {
    /// Validate the whole portfolio.
    pub fn validate(&self) -> Result<(), String> {
        if self.obligors.is_empty() {
            return Err("portfolio has no obligors".into());
        }
        for s in &self.sectors {
            if s.variance <= 0.0 {
                return Err("sector variance must be positive".into());
            }
        }
        for (i, o) in self.obligors.iter().enumerate() {
            o.validate(self.sectors.len())
                .map_err(|e| format!("obligor {i}: {e}"))?;
        }
        Ok(())
    }

    /// Expected loss `Σ_i pd_i · ν_i` (in loss units) — exact in
    /// CreditRisk+ regardless of sector structure.
    pub fn expected_loss(&self) -> f64 {
        self.obligors.iter().map(|o| o.pd * o.exposure as f64).sum()
    }

    /// A deterministic synthetic portfolio: `n_obligors` spread over
    /// `n_sectors` sectors of variance `v`, with exposures and PDs cycling
    /// over small ranges. Stands in for the proprietary loan books the
    /// paper's industrial partner (BearingPoint) runs — same structure,
    /// synthetic content.
    pub fn synthetic(n_obligors: usize, n_sectors: usize, v: f64) -> Self {
        assert!(n_obligors > 0 && n_sectors > 0);
        let sectors = vec![Sector { variance: v }; n_sectors];
        let obligors = (0..n_obligors)
            .map(|i| {
                let pd = 0.005 + 0.002 * (i % 7) as f64;
                let exposure = 1 + (i % 5) as u32;
                let k = i % n_sectors;
                Obligor {
                    pd,
                    exposure,
                    specific_weight: 0.25,
                    sector_weights: vec![(k, 0.75)],
                }
            })
            .collect();
        Self { sectors, obligors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_portfolio_validates() {
        let p = Portfolio::synthetic(100, 4, 1.39);
        p.validate().unwrap();
        assert_eq!(p.obligors.len(), 100);
        assert_eq!(p.sectors.len(), 4);
    }

    #[test]
    fn expected_loss_formula() {
        let p = Portfolio {
            sectors: vec![Sector { variance: 1.0 }],
            obligors: vec![
                Obligor {
                    pd: 0.01,
                    exposure: 10,
                    specific_weight: 0.0,
                    sector_weights: vec![(0, 1.0)],
                },
                Obligor {
                    pd: 0.02,
                    exposure: 5,
                    specific_weight: 1.0,
                    sector_weights: vec![],
                },
            ],
        };
        p.validate().unwrap();
        assert!((p.expected_loss() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bad_weights_rejected() {
        let o = Obligor {
            pd: 0.01,
            exposure: 1,
            specific_weight: 0.5,
            sector_weights: vec![(0, 0.6)],
        };
        assert!(o.validate(1).is_err());
    }

    #[test]
    fn out_of_range_sector_rejected() {
        let o = Obligor {
            pd: 0.01,
            exposure: 1,
            specific_weight: 0.0,
            sector_weights: vec![(3, 1.0)],
        };
        assert!(o.validate(2).is_err());
    }

    #[test]
    fn zero_exposure_rejected() {
        let o = Obligor {
            pd: 0.01,
            exposure: 0,
            specific_weight: 1.0,
            sector_weights: vec![],
        };
        assert!(o.validate(0).is_err());
    }

    #[test]
    fn empty_portfolio_rejected() {
        let p = Portfolio {
            sectors: vec![],
            obligors: vec![],
        };
        assert!(p.validate().is_err());
    }
}
