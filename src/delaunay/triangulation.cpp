#include "delaunay/triangulation.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "geom/bbox.hpp"
#include "geom/predicates.hpp"

namespace hybrid::delaunay {

namespace {

using geom::Vec2;

// Working triangle with liveness flag; vertex order is ccw, adj[i] faces
// the edge opposite vertex i.
struct WorkTri {
  std::array<int, 3> v;
  std::array<int, 3> adj;
  bool alive = true;
};

class Builder {
 public:
  explicit Builder(const std::vector<Vec2>& input) : pts_(input) {
    const std::size_t n = input.size();
    if (n < 3) return;

    // Super-triangle far outside the data range. Exact predicates keep the
    // construction consistent; a final legalization pass (below) restores
    // the Delaunay property among finite triangles near the boundary.
    geom::BBox box = geom::BBox::of(pts_);
    const double span = std::max({box.width(), box.height(), 1.0});
    const Vec2 c = box.center();
    const double m = span * 1e4;
    superBase_ = static_cast<int>(n);
    pts_.push_back({c.x - 2.0 * m, c.y - m});
    pts_.push_back({c.x + 2.0 * m, c.y - m});
    pts_.push_back({c.x, c.y + 2.0 * m});
    tris_.push_back({{superBase_, superBase_ + 1, superBase_ + 2}, {-1, -1, -1}, true});
    // An insert fans one triangle per cavity boundary edge (about 6 on
    // average) and dead triangles stay in place, so reserve ~8 per point.
    tris_.reserve(8 * n + 16);
    badStamp_.reserve(tris_.capacity());
    startOf_.assign(pts_.size(), {0, -1});
    endOf_.assign(pts_.size(), {0, -1});

    for (int i = 0; i < static_cast<int>(n); ++i) insert(i);
    legalizeFinite();
  }

  std::vector<Triangle> finish() {
    // Drop dead triangles and those touching the super-triangle; remap adj.
    std::vector<int> remap(tris_.size(), -1);
    std::vector<Triangle> out;
    for (std::size_t t = 0; t < tris_.size(); ++t) {
      const WorkTri& wt = tris_[t];
      if (!wt.alive || touchesSuper(wt)) continue;
      remap[t] = static_cast<int>(out.size());
      Triangle tri;
      tri.v = wt.v;
      out.push_back(tri);
    }
    for (std::size_t t = 0; t < tris_.size(); ++t) {
      if (remap[t] < 0) continue;
      for (int i = 0; i < 3; ++i) {
        const int a = tris_[t].adj[static_cast<std::size_t>(i)];
        out[static_cast<std::size_t>(remap[t])].adj[static_cast<std::size_t>(i)] =
            (a >= 0 && remap[static_cast<std::size_t>(a)] >= 0)
                ? remap[static_cast<std::size_t>(a)]
                : -1;
      }
    }
    return out;
  }

 private:
  bool isSuper(int v) const { return superBase_ >= 0 && v >= superBase_; }
  bool touchesSuper(const WorkTri& t) const {
    return isSuper(t.v[0]) || isSuper(t.v[1]) || isSuper(t.v[2]);
  }

  // Walk from `start` to a triangle containing p (possibly on its boundary).
  int locate(int start, Vec2 p) const {
    int t = start;
    for (std::size_t guard = 0; guard < 4 * tris_.size() + 16; ++guard) {
      const WorkTri& wt = tris_[static_cast<std::size_t>(t)];
      bool moved = false;
      for (int i = 0; i < 3; ++i) {
        const Vec2 a = pts_[static_cast<std::size_t>(wt.v[static_cast<std::size_t>((i + 1) % 3)])];
        const Vec2 b = pts_[static_cast<std::size_t>(wt.v[static_cast<std::size_t>((i + 2) % 3)])];
        if (geom::orient(a, b, p) < 0) {
          const int next = wt.adj[static_cast<std::size_t>(i)];
          if (next >= 0) {
            t = next;
            moved = true;
            break;
          }
        }
      }
      if (!moved) return t;
    }
    throw std::runtime_error("Delaunay locate failed to converge (duplicate points?)");
  }

  void insert(int pi) {
    const Vec2 p = pts_[static_cast<std::size_t>(pi)];
    const int containing = locate(lastAlive_, p);
    // Each insert gets a fresh stamp, so the scratch arrays below never
    // need clearing: an entry counts only when it carries this stamp.
    const int stamp = pi + 1;

    // Grow the cavity of triangles whose circumcircle strictly contains p.
    bad_.clear();
    stack_.assign(1, containing);
    badStamp_.resize(tris_.size(), 0);
    badStamp_[static_cast<std::size_t>(containing)] = stamp;
    const auto inBad = [&](int t) { return badStamp_[static_cast<std::size_t>(t)] == stamp; };
    while (!stack_.empty()) {
      const int t = stack_.back();
      stack_.pop_back();
      bad_.push_back(t);
      for (int i = 0; i < 3; ++i) {
        const int nb = tris_[static_cast<std::size_t>(t)].adj[static_cast<std::size_t>(i)];
        if (nb < 0 || inBad(nb)) continue;
        const WorkTri& wn = tris_[static_cast<std::size_t>(nb)];
        if (geom::inCircle(pts_[static_cast<std::size_t>(wn.v[0])],
                           pts_[static_cast<std::size_t>(wn.v[1])],
                           pts_[static_cast<std::size_t>(wn.v[2])], p) > 0) {
          badStamp_[static_cast<std::size_t>(nb)] = stamp;
          stack_.push_back(nb);
        }
      }
    }

    // Boundary of the cavity: directed edges (a, b) with the cavity on the
    // left, plus the outside triangle across each.
    boundary_.clear();
    for (int t : bad_) {
      const WorkTri& wt = tris_[static_cast<std::size_t>(t)];
      for (int i = 0; i < 3; ++i) {
        const int nb = wt.adj[static_cast<std::size_t>(i)];
        if (nb >= 0 && inBad(nb)) continue;
        boundary_.push_back({wt.v[static_cast<std::size_t>((i + 1) % 3)],
                             wt.v[static_cast<std::size_t>((i + 2) % 3)], nb});
      }
    }
    for (int t : bad_) tris_[static_cast<std::size_t>(t)].alive = false;

    // Fan new triangles (a, b, p) around p; they inherit outside adjacency
    // across (a, b) and link to each other across the p-incident edges:
    // edge (b, p) of the triangle over (a, b) borders the fan triangle whose
    // boundary edge starts at b, and edge (p, a) the one whose boundary edge
    // ends at a. The cavity boundary is a simple cycle, so each vertex
    // starts and ends one boundary edge; should a degenerate cavity repeat a
    // vertex, only the last fan triangle to claim it is linked.
    const int firstNew = static_cast<int>(tris_.size());
    for (const BEdge& e : boundary_) {
      WorkTri nt;
      nt.v = {e.a, e.b, pi};
      nt.adj = {-1, -1, e.outside};  // edge 2 = (a, b)
      const int ti = static_cast<int>(tris_.size());
      tris_.push_back(nt);
      if (e.outside >= 0) {
        WorkTri& wo = tris_[static_cast<std::size_t>(e.outside)];
        for (int i = 0; i < 3; ++i) {
          if (wo.v[static_cast<std::size_t>((i + 1) % 3)] == e.b &&
              wo.v[static_cast<std::size_t>((i + 2) % 3)] == e.a) {
            wo.adj[static_cast<std::size_t>(i)] = ti;
          }
        }
      }
      startOf_[static_cast<std::size_t>(e.a)] = {stamp, ti};
      endOf_[static_cast<std::size_t>(e.b)] = {stamp, ti};
    }
    for (int ti = firstNew; ti < static_cast<int>(tris_.size()); ++ti) {
      WorkTri& nt = tris_[static_cast<std::size_t>(ti)];
      const auto& startA = startOf_[static_cast<std::size_t>(nt.v[0])];
      const auto& endA = endOf_[static_cast<std::size_t>(nt.v[0])];
      const auto& startB = startOf_[static_cast<std::size_t>(nt.v[1])];
      const auto& endB = endOf_[static_cast<std::size_t>(nt.v[1])];
      if (endB[1] == ti && startB[0] == stamp) nt.adj[0] = startB[1];  // edge 0 = (b, p)
      if (startA[1] == ti && endA[0] == stamp) nt.adj[1] = endA[1];    // edge 1 = (p, a)
    }
    lastAlive_ = firstNew;
  }

  // Lawson flips over finite-finite edges until locally Delaunay. This
  // repairs any boundary slivers introduced by the finite super-triangle.
  void legalizeFinite() {
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 64) {
      changed = false;
      for (std::size_t t = 0; t < tris_.size(); ++t) {
        if (!tris_[t].alive) continue;
        for (int i = 0; i < 3; ++i) {
          if (tryFlip(static_cast<int>(t), i)) {
            changed = true;
            break;
          }
        }
      }
    }
  }

  // Flips edge i of triangle t if the opposite vertex of the neighbor lies
  // strictly inside t's circumcircle (finite vertices only).
  bool tryFlip(int t, int i) {
    WorkTri& wt = tris_[static_cast<std::size_t>(t)];
    const int nb = wt.adj[static_cast<std::size_t>(i)];
    if (nb < 0) return false;
    WorkTri& wn = tris_[static_cast<std::size_t>(nb)];
    if (touchesSuper(wt) || touchesSuper(wn)) return false;

    const int a = wt.v[static_cast<std::size_t>(i)];
    const int b = wt.v[static_cast<std::size_t>((i + 1) % 3)];
    const int c = wt.v[static_cast<std::size_t>((i + 2) % 3)];
    // Neighbor's vertex not on the shared edge (b, c).
    int d = -1;
    for (int k = 0; k < 3; ++k) {
      if (wn.v[static_cast<std::size_t>(k)] != b && wn.v[static_cast<std::size_t>(k)] != c) {
        d = wn.v[static_cast<std::size_t>(k)];
      }
    }
    if (d < 0) return false;
    if (geom::inCircle(pts_[static_cast<std::size_t>(a)], pts_[static_cast<std::size_t>(b)],
                       pts_[static_cast<std::size_t>(c)],
                       pts_[static_cast<std::size_t>(d)]) <= 0) {
      return false;
    }
    // Replace triangles (a,b,c)+(d,c,b) with (a,b,d)+(a,d,c).
    const int tBC = nb;
    const int nAB = wt.adj[static_cast<std::size_t>((i + 2) % 3)];
    const int nCA = wt.adj[static_cast<std::size_t>((i + 1) % 3)];
    // Identify neighbor triangles of wn across edges (d,b) and (c,d).
    int nbDB = -1;
    int nbCD = -1;
    for (int k = 0; k < 3; ++k) {
      const int e1 = wn.v[static_cast<std::size_t>((k + 1) % 3)];
      const int e2 = wn.v[static_cast<std::size_t>((k + 2) % 3)];
      if ((e1 == d && e2 == b) || (e1 == b && e2 == d)) nbDB = wn.adj[static_cast<std::size_t>(k)];
      if ((e1 == c && e2 == d) || (e1 == d && e2 == c)) nbCD = wn.adj[static_cast<std::size_t>(k)];
    }

    wt.v = {a, b, d};
    wn.v = {a, d, c};
    // wt edges: 0:(b,d) -> nbDB, 1:(d,a) -> wn, 2:(a,b) -> nAB
    wt.adj = {nbDB, tBC, nAB};
    // wn edges: 0:(d,c) -> nbCD, 1:(c,a) -> nCA, 2:(a,d) -> t
    wn.adj = {nbCD, nCA, t};
    fixBackPointer(nbDB, tBC, t);
    fixBackPointer(nCA, t, tBC);
    lastAlive_ = t;
    return true;
  }

  void fixBackPointer(int tri, int oldNb, int newNb) {
    if (tri < 0) return;
    for (auto& a : tris_[static_cast<std::size_t>(tri)].adj) {
      if (a == oldNb) a = newNb;
    }
  }

  // A cavity boundary edge (a, b), cavity on the left, and the outside
  // triangle across it.
  struct BEdge {
    int a, b, outside;
  };

  std::vector<Vec2> pts_;
  std::vector<WorkTri> tris_;
  int superBase_ = -1;
  int lastAlive_ = 0;

  // Insert scratch, owned by the builder so inserts do not allocate once
  // the vectors have grown. Stamped entries are valid only for the insert
  // whose stamp they carry.
  std::vector<int> badStamp_;  ///< Per triangle: stamp when in the cavity.
  std::vector<int> bad_;
  std::vector<int> stack_;
  std::vector<BEdge> boundary_;
  /// Per vertex: {stamp, fan triangle} whose boundary edge starts (startOf_)
  /// or ends (endOf_) at the vertex.
  std::vector<std::array<int, 2>> startOf_;
  std::vector<std::array<int, 2>> endOf_;
};

}  // namespace

DelaunayTriangulation::DelaunayTriangulation(const std::vector<geom::Vec2>& points)
    : pts_(points) {
  if (points.size() < 3) return;
  Builder b(points);
  tris_ = b.finish();
}

std::vector<std::pair<int, int>> DelaunayTriangulation::edges() const {
  std::vector<std::pair<int, int>> all;
  all.reserve(tris_.size() * 3);
  for (const Triangle& t : tris_) {
    for (int i = 0; i < 3; ++i) {
      int u = t.v[static_cast<std::size_t>(i)];
      int v = t.v[static_cast<std::size_t>((i + 1) % 3)];
      if (u > v) std::swap(u, v);
      all.emplace_back(u, v);
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

graph::GeometricGraph DelaunayTriangulation::toGraph() const {
  graph::GeometricGraph g(pts_);
  for (const auto& [u, v] : edges()) g.addEdge(u, v);
  return g;
}

bool DelaunayTriangulation::hasEdge(int u, int v) const {
  for (const Triangle& t : tris_) {
    for (int i = 0; i < 3; ++i) {
      const int a = t.v[static_cast<std::size_t>(i)];
      const int b = t.v[static_cast<std::size_t>((i + 1) % 3)];
      if ((a == u && b == v) || (a == v && b == u)) return true;
    }
  }
  return false;
}

}  // namespace hybrid::delaunay
