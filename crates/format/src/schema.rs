//! Physical schema of a columnar file.
//!
//! Like the paper's prototype ("does not support strings yet", §5.1), the
//! format is numeric-only: 64-bit integers and doubles. Categorical TPC-H
//! attributes are dictionary-coded to integers by the data generator.

use crate::binio::{BinReader, BinWriter};
use crate::error::{corrupt, Result};

/// Physical type of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhysicalType {
    I64,
    F64,
}

impl PhysicalType {
    pub fn name(self) -> &'static str {
        match self {
            PhysicalType::I64 => "i64",
            PhysicalType::F64 => "f64",
        }
    }

    fn tag(self) -> u8 {
        match self {
            PhysicalType::I64 => 0,
            PhysicalType::F64 => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(PhysicalType::I64),
            1 => Ok(PhysicalType::F64),
            other => Err(corrupt(format!("unknown physical type tag {other}"))),
        }
    }

    /// Width of one plain-encoded value in bytes.
    pub fn plain_width(self) -> usize {
        8
    }
}

/// One column: name plus physical type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnSchema {
    pub name: String,
    pub ptype: PhysicalType,
}

impl ColumnSchema {
    pub fn new(name: impl Into<String>, ptype: PhysicalType) -> Self {
        ColumnSchema { name: name.into(), ptype }
    }
}

/// Ordered list of columns.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FileSchema {
    pub columns: Vec<ColumnSchema>,
}

impl FileSchema {
    pub fn new(columns: Vec<ColumnSchema>) -> Self {
        FileSchema { columns }
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn column(&self, idx: usize) -> &ColumnSchema {
        &self.columns[idx]
    }

    pub(crate) fn encode(&self, w: &mut BinWriter) {
        w.varint(self.columns.len() as u64);
        for c in &self.columns {
            w.string(&c.name);
            w.u8(c.ptype.tag());
        }
    }

    pub(crate) fn decode(r: &mut BinReader<'_>) -> Result<Self> {
        let n = r.varint()? as usize;
        let mut columns = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let name = r.string()?;
            let ptype = PhysicalType::from_tag(r.u8()?)?;
            columns.push(ColumnSchema { name, ptype });
        }
        Ok(FileSchema { columns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_roundtrip() {
        let schema = FileSchema::new(vec![
            ColumnSchema::new("l_quantity", PhysicalType::F64),
            ColumnSchema::new("l_shipdate", PhysicalType::I64),
        ]);
        let mut w = BinWriter::new();
        schema.encode(&mut w);
        let buf = w.into_bytes();
        let got = FileSchema::decode(&mut BinReader::new(&buf)).unwrap();
        assert_eq!(got, schema);
        assert_eq!(got.index_of("l_shipdate"), Some(1));
        assert_eq!(got.index_of("missing"), None);
    }

    #[test]
    fn bad_type_tag_rejected() {
        let mut w = BinWriter::new();
        w.varint(1);
        w.string("c");
        w.u8(99);
        let buf = w.into_bytes();
        assert!(FileSchema::decode(&mut BinReader::new(&buf)).is_err());
    }
}
