//! Instance categories (Fig. 3) and activity policies (Fig. 4).
//!
//! Categories come from Mastodon's self-declared controlled taxonomy; the
//! paper identifies 15 of them. Activity policies describe what an instance
//! explicitly allows or prohibits; the paper reports 8 recurring ones.

use serde::{Deserialize, Serialize};

/// The 15 self-declared instance categories of Fig. 3 (ordered as in the
/// figure, by instance share).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Category {
    Tech,
    Games,
    Art,
    Activism,
    Music,
    Anime,
    Books,
    Academia,
    Lgbt,
    Journalism,
    Furry,
    Sports,
    Adult,
    Poc,
    Humor,
}

impl Category {
    /// All categories, in Fig. 3 order.
    pub const ALL: [Category; 15] = [
        Category::Tech,
        Category::Games,
        Category::Art,
        Category::Activism,
        Category::Music,
        Category::Anime,
        Category::Books,
        Category::Academia,
        Category::Lgbt,
        Category::Journalism,
        Category::Furry,
        Category::Sports,
        Category::Adult,
        Category::Poc,
        Category::Humor,
    ];

    /// Lower-case label as used in instance metadata.
    pub fn label(self) -> &'static str {
        match self {
            Category::Tech => "tech",
            Category::Games => "games",
            Category::Art => "art",
            Category::Activism => "activism",
            Category::Music => "music",
            Category::Anime => "anime",
            Category::Books => "books",
            Category::Academia => "academia",
            Category::Lgbt => "lgbt",
            Category::Journalism => "journalism",
            Category::Furry => "furry",
            Category::Sports => "sports",
            Category::Adult => "adult",
            Category::Poc => "poc",
            Category::Humor => "humor",
        }
    }
}

/// The 8 activity kinds of Fig. 4 that instances explicitly allow/prohibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Activity {
    /// Nudity, when tagged `#NSFW`.
    NudityWithNsfw,
    /// Pornography, when tagged `#NSFW`.
    PornWithNsfw,
    /// Posting spoilers without a content warning.
    SpoilersWithoutCw,
    Advertising,
    LinksToIllegalContent,
    /// Nudity without the `#NSFW` tag.
    NudityWithoutNsfw,
    /// Pornography without the `#NSFW` tag.
    PornWithoutNsfw,
    Spam,
}

impl Activity {
    /// All activities, in Fig. 4 order (top to bottom).
    pub const ALL: [Activity; 8] = [
        Activity::NudityWithNsfw,
        Activity::PornWithNsfw,
        Activity::SpoilersWithoutCw,
        Activity::Advertising,
        Activity::LinksToIllegalContent,
        Activity::NudityWithoutNsfw,
        Activity::PornWithoutNsfw,
        Activity::Spam,
    ];

    /// Human label as printed in Fig. 4.
    pub fn label(self) -> &'static str {
        match self {
            Activity::NudityWithNsfw => "Nudity with #NSFW",
            Activity::PornWithNsfw => "Porno with #NSFW",
            Activity::SpoilersWithoutCw => "Spoilers w/o CW",
            Activity::Advertising => "Advertising",
            Activity::LinksToIllegalContent => "Links to illegal content",
            Activity::NudityWithoutNsfw => "Nudity w/o #NSFW",
            Activity::PornWithoutNsfw => "Porno w/o #NSFW",
            Activity::Spam => "Spam",
        }
    }
}

/// An instance's explicit policy: which activities it allows and prohibits.
///
/// Modelled as two bitmasks over [`Activity::ALL`]. An activity may be
/// neither allowed nor prohibited (unstated); the paper reports that of the
/// categorised instances, 82% list at least one prohibition and 93% at least
/// one permission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PolicySet {
    allowed: u8,
    prohibited: u8,
}

impl PolicySet {
    /// Policy that allows every activity ("17.5% allow all types").
    pub fn allow_all() -> Self {
        Self {
            allowed: 0xff,
            prohibited: 0,
        }
    }

    /// An empty (unstated) policy.
    pub fn unstated() -> Self {
        Self::default()
    }

    fn bit(a: Activity) -> u8 {
        1 << Activity::ALL.iter().position(|&x| x == a).unwrap()
    }

    /// Mark `a` as explicitly allowed (clears any prohibition of `a`).
    pub fn allow(&mut self, a: Activity) {
        self.allowed |= Self::bit(a);
        self.prohibited &= !Self::bit(a);
    }

    /// Mark `a` as explicitly prohibited (clears any permission of `a`).
    pub fn prohibit(&mut self, a: Activity) {
        self.prohibited |= Self::bit(a);
        self.allowed &= !Self::bit(a);
    }

    /// Is `a` explicitly allowed?
    pub fn allows(&self, a: Activity) -> bool {
        self.allowed & Self::bit(a) != 0
    }

    /// Is `a` explicitly prohibited?
    pub fn prohibits(&self, a: Activity) -> bool {
        self.prohibited & Self::bit(a) != 0
    }

    /// Number of explicitly allowed activities.
    pub fn allowed_count(&self) -> u32 {
        self.allowed.count_ones()
    }

    /// Number of explicitly prohibited activities.
    pub fn prohibited_count(&self) -> u32 {
        self.prohibited.count_ones()
    }

    /// Whether every activity is allowed.
    pub fn allows_everything(&self) -> bool {
        self.allowed == 0xff
    }
}

/// A compact set of categories (an instance may declare several: the Fig. 3
/// shares sum to more than 100%).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CategorySet(u16);

impl CategorySet {
    /// The empty set (uncategorised instance).
    pub fn empty() -> Self {
        Self(0)
    }

    fn bit(c: Category) -> u16 {
        1 << Category::ALL.iter().position(|&x| x == c).unwrap()
    }

    /// Insert a category.
    pub fn insert(&mut self, c: Category) {
        self.0 |= Self::bit(c);
    }

    /// Remove a category (no-op if absent).
    pub fn remove(&mut self, c: Category) {
        self.0 &= !Self::bit(c);
    }

    /// Membership test.
    pub fn contains(&self, c: Category) -> bool {
        self.0 & Self::bit(c) != 0
    }

    /// Number of categories declared.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// True when no category is declared.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterate over member categories in Fig. 3 order.
    pub fn iter(&self) -> impl Iterator<Item = Category> + '_ {
        Category::ALL.iter().copied().filter(|&c| self.contains(c))
    }
}

impl FromIterator<Category> for CategorySet {
    fn from_iter<T: IntoIterator<Item = Category>>(iter: T) -> Self {
        let mut s = Self::empty();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_categories_eight_activities() {
        // The paper: "We identify 15 categories of instances" and Fig. 4
        // lists 8 activity rows.
        assert_eq!(Category::ALL.len(), 15);
        assert_eq!(Activity::ALL.len(), 8);
    }

    #[test]
    fn policy_allow_prohibit_exclusive() {
        let mut p = PolicySet::unstated();
        p.prohibit(Activity::Spam);
        assert!(p.prohibits(Activity::Spam));
        assert!(!p.allows(Activity::Spam));
        p.allow(Activity::Spam);
        assert!(p.allows(Activity::Spam));
        assert!(!p.prohibits(Activity::Spam));
    }

    #[test]
    fn allow_all_policy() {
        let p = PolicySet::allow_all();
        assert!(p.allows_everything());
        for a in Activity::ALL {
            assert!(p.allows(a));
            assert!(!p.prohibits(a));
        }
        assert_eq!(p.allowed_count(), 8);
        assert_eq!(p.prohibited_count(), 0);
    }

    #[test]
    fn category_set_ops() {
        let mut s = CategorySet::empty();
        assert!(s.is_empty());
        s.insert(Category::Tech);
        s.insert(Category::Adult);
        assert_eq!(s.len(), 2);
        assert!(s.contains(Category::Tech));
        assert!(!s.contains(Category::Games));
        let members: Vec<Category> = s.iter().collect();
        assert_eq!(members, vec![Category::Tech, Category::Adult]);
    }

    #[test]
    fn category_set_from_iter_dedupes() {
        let s: CategorySet = [Category::Art, Category::Art, Category::Music]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn unstated_policy_is_silent() {
        let p = PolicySet::unstated();
        for a in Activity::ALL {
            assert!(!p.allows(a));
            assert!(!p.prohibits(a));
        }
    }
}
