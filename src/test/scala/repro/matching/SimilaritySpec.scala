package repro.matching

import org.scalatest.funsuite.AnyFunSuite

class SimilaritySpec extends AnyFunSuite {

  test("sim is bounded in (0, 1]") {
    assert(Similarity.sim(0.0) == 1.0)
    assert(Similarity.sim(1.0) == 0.5)
    assert(Similarity.sim(3.0) == 0.25)
    val sims = Seq(1e9, 0.0).map(Similarity.sim)
    assert(sims.forall(s => s > 0 && s <= 1))
  }

  test("Tab.fmt pads columns") {
    val out = repro.core.Tab.fmt(Seq(Seq("a", "bb"), Seq("ccc", "d")))
    val lines = out.split("\n")
    assert(lines(0) == "a    bb")
    assert(lines(1) == "ccc  d ")
  }

  test("Tab.f formats doubles") {
    assert(repro.core.Tab.f(1.23456) == "1.235")
    assert(repro.core.Tab.f(1.0, 1) == "1.0")
  }
}
