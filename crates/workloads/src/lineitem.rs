//! TPC-H LINEITEM generator with dbgen-faithful distributions.
//!
//! Per §5.1 of the paper, strings are replaced by numbers (the prototype
//! "does not support strings yet") and the relation is **sorted by
//! `l_shipdate`** so the min/max indices of the columnar format make the
//! selection push-down on that attribute effective (Fig 11).

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use lambada_engine::types::{DataType, Field, Schema};
use lambada_engine::Column;

/// Days since 1970-01-01 for the TPC-H date constants.
pub mod dates {
    /// dbgen STARTDATE (1992-01-01).
    pub const START: i64 = 8035;
    /// dbgen ENDDATE (1998-12-01).
    pub const END: i64 = 10561;
    /// dbgen CURRENTDATE (1995-06-17).
    pub const CURRENT: i64 = 9298;
    /// Q1 cutoff: 1998-12-01 minus 90 days.
    pub const Q1_CUTOFF: i64 = END - 90;
    /// Q6 window: [1994-01-01, 1995-01-01).
    pub const Q6_START: i64 = 8766;
    pub const Q6_END: i64 = 9131;
    /// Q4 window: [1993-07-01, 1993-10-01) — one quarter.
    pub const Q4_START: i64 = 8582;
    pub const Q4_END: i64 = Q4_START + 92;
}

/// Column indices in the LINEITEM schema (stable, used by the queries).
pub mod cols {
    pub const ORDERKEY: usize = 0;
    pub const PARTKEY: usize = 1;
    pub const SUPPKEY: usize = 2;
    pub const LINENUMBER: usize = 3;
    pub const QUANTITY: usize = 4;
    pub const EXTENDEDPRICE: usize = 5;
    pub const DISCOUNT: usize = 6;
    pub const TAX: usize = 7;
    pub const RETURNFLAG: usize = 8;
    pub const LINESTATUS: usize = 9;
    pub const SHIPDATE: usize = 10;
    pub const COMMITDATE: usize = 11;
    pub const RECEIPTDATE: usize = 12;
    pub const SHIPINSTRUCT: usize = 13;
    pub const SHIPMODE: usize = 14;
    pub const COMMENT: usize = 15;
}

/// The 16-column numeric LINEITEM schema.
pub fn schema() -> Schema {
    Schema::new(vec![
        Field::new("l_orderkey", DataType::Int64),
        Field::new("l_partkey", DataType::Int64),
        Field::new("l_suppkey", DataType::Int64),
        Field::new("l_linenumber", DataType::Int64),
        Field::new("l_quantity", DataType::Float64),
        Field::new("l_extendedprice", DataType::Float64),
        Field::new("l_discount", DataType::Float64),
        Field::new("l_tax", DataType::Float64),
        Field::new("l_returnflag", DataType::Int64),
        Field::new("l_linestatus", DataType::Int64),
        Field::new("l_shipdate", DataType::Int64),
        Field::new("l_commitdate", DataType::Int64),
        Field::new("l_receiptdate", DataType::Int64),
        Field::new("l_shipinstruct", DataType::Int64),
        Field::new("l_shipmode", DataType::Int64),
        Field::new("l_comment", DataType::Int64),
    ])
}

/// Rows at a given scale factor (LINEITEM has ~6M rows per SF unit).
pub fn rows_for_scale(scale: f64) -> u64 {
    (6_000_000.0 * scale).round() as u64
}

/// Deterministic generator.
pub struct LineitemGenerator {
    pub seed: u64,
}

impl Default for LineitemGenerator {
    fn default() -> Self {
        LineitemGenerator { seed: 0x7C4 }
    }
}

impl LineitemGenerator {
    pub fn new(seed: u64) -> Self {
        LineitemGenerator { seed }
    }

    /// Generate all `rows` ship dates, globally sorted ascending.
    ///
    /// `shipdate = orderdate + U(1, 121)` with `orderdate` uniform over
    /// the dbgen order-date range.
    pub fn sorted_shipdates(&self, rows: u64) -> Vec<i64> {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x5317);
        let od_max = dates::END - 151; // dbgen: orderdate <= ENDDATE - 151
        let mut out: Vec<i64> = (0..rows)
            .map(|_| {
                let orderdate = rng.random_range(dates::START..=od_max);
                orderdate + rng.random_range(1..=121)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Materialize all 16 columns for a slice of the (sorted) ship dates.
    /// `row_offset` is the global index of `shipdates[0]`, so repeated
    /// calls with consecutive slices produce one consistent relation.
    pub fn columns_for_shipdates(&self, shipdates: &[i64], row_offset: u64) -> Vec<Column> {
        let n = shipdates.len();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ row_offset.wrapping_mul(0x9E37_79B9));
        let mut orderkey = Vec::with_capacity(n);
        let mut partkey = Vec::with_capacity(n);
        let mut suppkey = Vec::with_capacity(n);
        let mut linenumber = Vec::with_capacity(n);
        let mut quantity = Vec::with_capacity(n);
        let mut extendedprice = Vec::with_capacity(n);
        let mut discount = Vec::with_capacity(n);
        let mut tax = Vec::with_capacity(n);
        let mut returnflag = Vec::with_capacity(n);
        let mut linestatus = Vec::with_capacity(n);
        let mut commitdate = Vec::with_capacity(n);
        let mut receiptdate = Vec::with_capacity(n);
        let mut shipinstruct = Vec::with_capacity(n);
        let mut shipmode = Vec::with_capacity(n);
        let mut comment = Vec::with_capacity(n);

        for (i, &ship) in shipdates.iter().enumerate() {
            let global = row_offset + i as u64;
            // dbgen: orderkey is sparse over 4x the row space.
            orderkey.push(((global / 4) * 8 + global % 4) as i64 + 1);
            partkey.push(rng.random_range(1..=200_000i64));
            suppkey.push(rng.random_range(1..=10_000i64));
            linenumber.push((global % 7) as i64 + 1);
            let qty = rng.random_range(1..=50i64);
            quantity.push(qty as f64);
            // dbgen: extendedprice = quantity * part retail price
            // (90000..200000 cents scaled).
            let price_cents = rng.random_range(90_000..=200_000i64);
            extendedprice.push(qty as f64 * price_cents as f64 / 100.0);
            discount.push(rng.random_range(0..=10i64) as f64 / 100.0);
            tax.push(rng.random_range(0..=8i64) as f64 / 100.0);
            let orderdate = ship - rng.random_range(1..=121i64);
            let receipt = ship + rng.random_range(1..=30i64);
            commitdate.push(orderdate + rng.random_range(30..=90i64));
            receiptdate.push(receipt);
            // dbgen: R or A when received by CURRENTDATE, else N.
            returnflag.push(if receipt <= dates::CURRENT {
                i64::from(rng.random_bool(0.5)) // 0 = A, 1 = R
            } else {
                2 // N
            });
            linestatus.push(i64::from(ship > dates::CURRENT)); // 0 = F, 1 = O
            shipinstruct.push(rng.random_range(0..4i64));
            shipmode.push(rng.random_range(0..7i64));
            comment.push(rng.random_range(0..1_000_000i64));
        }

        vec![
            Column::I64(orderkey),
            Column::I64(partkey),
            Column::I64(suppkey),
            Column::I64(linenumber),
            Column::F64(quantity),
            Column::F64(extendedprice),
            Column::F64(discount),
            Column::F64(tax),
            Column::I64(returnflag),
            Column::I64(linestatus),
            Column::I64(shipdates.to_vec()),
            Column::I64(commitdate),
            Column::I64(receiptdate),
            Column::I64(shipinstruct),
            Column::I64(shipmode),
            Column::I64(comment),
        ]
    }

    /// Generate the whole relation at once (small scales only).
    pub fn generate(&self, rows: u64) -> Vec<Column> {
        let shipdates = self.sorted_shipdates(rows);
        self.columns_for_shipdates(&shipdates, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipdates_are_sorted_and_in_range() {
        let g = LineitemGenerator::new(1);
        let d = g.sorted_shipdates(10_000);
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
        assert!(*d.first().unwrap() > dates::START);
        assert!(*d.last().unwrap() <= dates::END - 151 + 121);
    }

    #[test]
    fn q1_selectivity_about_98_percent() {
        let g = LineitemGenerator::new(2);
        let d = g.sorted_shipdates(50_000);
        let frac = d.iter().filter(|&&x| x <= dates::Q1_CUTOFF).count() as f64 / d.len() as f64;
        assert!((0.96..0.995).contains(&frac), "Q1 selectivity {frac}");
    }

    #[test]
    fn q6_selectivity_about_2_percent() {
        let g = LineitemGenerator::new(3);
        let rows = 50_000;
        let cols = g.generate(rows);
        let ship = cols[cols::SHIPDATE].as_i64().unwrap();
        let disc = cols[cols::DISCOUNT].as_f64().unwrap();
        let qty = cols[cols::QUANTITY].as_f64().unwrap();
        let hits = (0..rows as usize)
            .filter(|&i| {
                (dates::Q6_START..dates::Q6_END).contains(&ship[i])
                    && (0.0499..=0.0701).contains(&disc[i])
                    && qty[i] < 24.0
            })
            .count();
        let frac = hits as f64 / rows as f64;
        assert!((0.01..0.035).contains(&frac), "Q6 selectivity {frac}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = LineitemGenerator::new(7).generate(1000);
        let b = LineitemGenerator::new(7).generate(1000);
        assert_eq!(a, b);
        let c = LineitemGenerator::new(8).generate(1000);
        assert_ne!(a, c);
    }

    #[test]
    fn schema_has_16_numeric_columns() {
        let s = schema();
        assert_eq!(s.len(), 16);
        assert!(s.fields.iter().all(|f| f.dtype.is_numeric()));
        assert_eq!(s.index_of("l_shipdate").unwrap(), cols::SHIPDATE);
    }

    #[test]
    fn dbgen_value_domains() {
        let cols_v = LineitemGenerator::new(5).generate(5_000);
        let qty = cols_v[cols::QUANTITY].as_f64().unwrap();
        assert!(qty.iter().all(|&q| (1.0..=50.0).contains(&q)));
        let disc = cols_v[cols::DISCOUNT].as_f64().unwrap();
        assert!(disc.iter().all(|&d| (0.0..=0.101).contains(&d)));
        let tax = cols_v[cols::TAX].as_f64().unwrap();
        assert!(tax.iter().all(|&t| (0.0..=0.081).contains(&t)));
        let rf = cols_v[cols::RETURNFLAG].as_i64().unwrap();
        assert!(rf.iter().all(|&r| (0..=2).contains(&r)));
        // Receipt after ship, commit within order+30..90.
        let ship = cols_v[cols::SHIPDATE].as_i64().unwrap();
        let receipt = cols_v[cols::RECEIPTDATE].as_i64().unwrap();
        assert!(ship.iter().zip(receipt).all(|(&s, &r)| r > s && r <= s + 30));
    }

    #[test]
    fn returnflag_linestatus_follow_dates() {
        let cols_v = LineitemGenerator::new(6).generate(5_000);
        let ship = cols_v[cols::SHIPDATE].as_i64().unwrap();
        let receipt = cols_v[cols::RECEIPTDATE].as_i64().unwrap();
        let rf = cols_v[cols::RETURNFLAG].as_i64().unwrap();
        let ls = cols_v[cols::LINESTATUS].as_i64().unwrap();
        for i in 0..ship.len() {
            if receipt[i] <= dates::CURRENT {
                assert!(rf[i] == 0 || rf[i] == 1);
            } else {
                assert_eq!(rf[i], 2);
            }
            assert_eq!(ls[i], i64::from(ship[i] > dates::CURRENT));
        }
    }
}
