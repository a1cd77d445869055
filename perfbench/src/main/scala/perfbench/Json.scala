package perfbench

/** Minimal JSON rendering for the result line and the result file; use a
  * `ListMap` where key order matters.
  */
object Json {
  def apply(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else java.lang.Double.toString(d)
    case f: Float => apply(f.toDouble)
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] => m.map { case (k, x) => quote(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ", ", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    sb += '"'
    sb.result()
  }
}
